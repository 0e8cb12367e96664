package floorplan

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/graph"
)

// The anneal schedule: 30 moves per core at each temperature, starting at
// the average uphill delta of a 50-move random walk (the standard Wong-Liu
// recipe) and cooling geometrically until the temperature drops below
// minTemp.
const (
	movesPerCore = 30
	probeMoves   = 50
	coolingRate  = 0.93
	minTemp      = 1e-3
)

// Slicing runs the Wong-Liu slicing floorplanner: simulated annealing over
// normalized Polish expressions with area cost. Cores may rotate 90
// degrees. It returns the best placement found. The result is
// deterministic for a fixed seed.
func Slicing(cores []Core, seed int64) (*Placement, error) {
	if err := checkCores(cores); err != nil {
		return nil, err
	}
	if len(cores) == 1 {
		return NewPlacement(
			map[graph.NodeID]Point{cores[0].ID: {0, 0}},
			map[graph.NodeID]Point{cores[0].ID: {cores[0].W, cores[0].H}},
		), nil
	}
	return anneal(cores, seed, func(expr []token) float64 { return slicingArea(expr, cores) }), nil
}

func checkCores(cores []Core) error {
	if len(cores) == 0 {
		return fmt.Errorf("floorplan: no cores")
	}
	for _, c := range cores {
		if c.W <= 0 || c.H <= 0 {
			return fmt.Errorf("floorplan: core %d has nonpositive dimensions", c.ID)
		}
	}
	return nil
}

// anneal minimizes cost over normalized Polish expressions of at least
// two cores and realizes the best expression found.
func anneal(cores []Core, seed int64, cost func([]token) float64) *Placement {
	n := len(cores)
	rng := rand.New(rand.NewSource(seed))

	// Initial expression: c0 c1 V c2 V c3 V ... (a row), alternating cut
	// direction for a better start.
	expr := make([]token, 0, 2*n-1)
	expr = append(expr, token{operand: 0})
	for i := 1; i < n; i++ {
		expr = append(expr, token{operand: i})
		if i%2 == 0 {
			expr = append(expr, token{op: opV})
		} else {
			expr = append(expr, token{op: opH})
		}
	}

	cur := expr
	curCost := cost(cur)
	best := append([]token(nil), cur...)
	bestCost := curCost

	var sum float64
	count := 0
	probe, pc := cur, curCost
	for i := 0; i < probeMoves; i++ {
		cand := mutate(probe, rng)
		if cand == nil {
			continue
		}
		c := cost(cand)
		if d := c - pc; d > 0 {
			sum += d
			count++
		}
		probe, pc = cand, c
	}
	temp := 1.0
	if count > 0 {
		temp = sum / float64(count)
	}

	for ; temp > minTemp; temp *= coolingRate {
		for i := 0; i < movesPerCore*n; i++ {
			cand := mutate(cur, rng)
			if cand == nil {
				continue
			}
			c := cost(cand)
			d := c - curCost
			if d <= 0 || rng.Float64() < math.Exp(-d/temp) {
				cur, curCost = cand, c
				if curCost < bestCost {
					best = append(best[:0], cur...)
					bestCost = curCost
				}
			}
		}
	}
	return realize(best, cores)
}

type opKind int

const (
	opNone opKind = iota
	opH           // horizontal cut: top/bottom composition
	opV           // vertical cut: left/right composition
)

// token is one symbol of a Polish expression: either an operand (core
// index) or an operator.
type token struct {
	operand int
	op      opKind
}

func (t token) isOperand() bool { return t.op == opNone }

// mutate applies one of the Wong-Liu move types, returning a new
// expression or nil if the sampled move was inapplicable.
func mutate(expr []token, rng *rand.Rand) []token {
	out := append([]token(nil), expr...)
	switch rng.Intn(3) {
	case 0: // M1: swap two adjacent operands.
		idx := operandPositions(out)
		if len(idx) < 2 {
			return nil
		}
		i := rng.Intn(len(idx) - 1)
		out[idx[i]], out[idx[i+1]] = out[idx[i+1]], out[idx[i]]
		return out
	case 1: // M2: complement a maximal operator chain.
		chains := operatorChains(out)
		if len(chains) == 0 {
			return nil
		}
		ch := chains[rng.Intn(len(chains))]
		for p := ch[0]; p <= ch[1]; p++ {
			if out[p].op == opH {
				out[p].op = opV
			} else {
				out[p].op = opH
			}
		}
		return out
	default: // M3: swap adjacent operand/operator pair, preserving validity.
		// Collect positions where expr[p] is operand and expr[p+1] operator
		// or vice versa, and the swap keeps the expression normalized
		// (balloting property and no identical adjacent operators).
		var cands []int
		for p := 0; p+1 < len(out); p++ {
			if out[p].isOperand() != out[p+1].isOperand() {
				cands = append(cands, p)
			}
		}
		rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
		for _, p := range cands {
			out[p], out[p+1] = out[p+1], out[p]
			if validExpression(out) {
				return out
			}
			out[p], out[p+1] = out[p+1], out[p]
		}
		return nil
	}
}

func operandPositions(expr []token) []int {
	var idx []int
	for i, t := range expr {
		if t.isOperand() {
			idx = append(idx, i)
		}
	}
	return idx
}

// operatorChains returns [start,end] index pairs of maximal operator runs.
func operatorChains(expr []token) [][2]int {
	var chains [][2]int
	i := 0
	for i < len(expr) {
		if expr[i].isOperand() {
			i++
			continue
		}
		j := i
		for j+1 < len(expr) && !expr[j+1].isOperand() {
			j++
		}
		chains = append(chains, [2]int{i, j})
		i = j + 1
	}
	return chains
}

// validExpression checks the balloting property (every prefix has more
// operands than operators) and normalization (no two identical adjacent
// operators), which guarantee a well-formed skewed slicing tree.
func validExpression(expr []token) bool {
	operands, operators := 0, 0
	for i, t := range expr {
		if t.isOperand() {
			operands++
		} else {
			operators++
			if operators >= operands {
				return false
			}
			if i > 0 && !expr[i-1].isOperand() && expr[i-1].op == t.op {
				return false
			}
		}
	}
	return operators == operands-1
}

// shape is a candidate (w,h) realization of a subtree.
type shape struct {
	w, h float64
	// children's chosen shape indices, for traceback
	l, r int
	rot  bool
}

// slicingArea evaluates the chip area of an expression (min over shape
// combinations, considering rotation).
func slicingArea(expr []token, cores []Core) float64 {
	stack := make([][]shape, 0, len(expr))
	for _, t := range expr {
		if t.isOperand() {
			c := cores[t.operand]
			shapes := []shape{{w: c.W, h: c.H}}
			if c.W != c.H {
				shapes = append(shapes, shape{w: c.H, h: c.W, rot: true})
			}
			stack = append(stack, shapes)
			continue
		}
		r := stack[len(stack)-1]
		l := stack[len(stack)-2]
		stack = stack[:len(stack)-2]
		stack = append(stack, combineShapes(l, r, t.op))
	}
	top := stack[0]
	best := math.Inf(1)
	for _, s := range top {
		if a := s.w * s.h; a < best {
			best = a
		}
	}
	return best
}

// combineShapes merges child shape lists under an operator, pruning
// dominated shapes.
func combineShapes(l, r []shape, op opKind) []shape {
	var out []shape
	for li, ls := range l {
		for ri, rs := range r {
			var s shape
			if op == opV { // side by side
				s = shape{w: ls.w + rs.w, h: math.Max(ls.h, rs.h), l: li, r: ri}
			} else { // stacked
				s = shape{w: math.Max(ls.w, rs.w), h: ls.h + rs.h, l: li, r: ri}
			}
			out = append(out, s)
		}
	}
	return pruneDominated(out)
}

func pruneDominated(shapes []shape) []shape {
	var out []shape
	for i, s := range shapes {
		dominated := false
		for j, o := range shapes {
			if i == j {
				continue
			}
			if o.w <= s.w && o.h <= s.h && (o.w < s.w || o.h < s.h) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		return shapes
	}
	return out
}

// realize converts the best expression into concrete core origins by
// re-evaluating shapes with traceback.
func realize(expr []token, cores []Core) *Placement {
	type node struct {
		shapes []shape
		// children node indices in the node arena, -1 for leaves
		l, r    int
		operand int
		op      opKind
	}
	arena := make([]node, 0, len(expr))
	stack := make([]int, 0, len(expr))
	for _, t := range expr {
		if t.isOperand() {
			c := cores[t.operand]
			shapes := []shape{{w: c.W, h: c.H}}
			if c.W != c.H {
				shapes = append(shapes, shape{w: c.H, h: c.W, rot: true})
			}
			arena = append(arena, node{shapes: shapes, l: -1, r: -1, operand: t.operand})
			stack = append(stack, len(arena)-1)
			continue
		}
		ri := stack[len(stack)-1]
		li := stack[len(stack)-2]
		stack = stack[:len(stack)-2]
		arena = append(arena, node{
			shapes:  combineShapes(arena[li].shapes, arena[ri].shapes, t.op),
			l:       li,
			r:       ri,
			op:      t.op,
			operand: -1,
		})
		stack = append(stack, len(arena)-1)
	}
	rootIdx := stack[0]
	root := arena[rootIdx]
	bestI, bestA := 0, math.Inf(1)
	for i, s := range root.shapes {
		if a := s.w * s.h; a < bestA {
			bestI, bestA = i, a
		}
	}

	origins := make(map[graph.NodeID]Point, len(cores))
	dims := make(map[graph.NodeID]Point, len(cores))
	var place func(ni, si int, x, y float64)
	place = func(ni, si int, x, y float64) {
		n := arena[ni]
		s := n.shapes[si]
		if n.l < 0 {
			c := cores[n.operand]
			w, h := c.W, c.H
			if s.rot {
				w, h = h, w
			}
			origins[c.ID] = Point{X: x, Y: y}
			dims[c.ID] = Point{X: w, Y: h}
			return
		}
		ls := arena[n.l].shapes[s.l]
		if n.op == opV {
			place(n.l, s.l, x, y)
			place(n.r, s.r, x+ls.w, y)
		} else {
			place(n.l, s.l, x, y)
			place(n.r, s.r, x, y+ls.h)
		}
	}
	place(rootIdx, bestI, 0, 0)
	return NewPlacement(origins, dims)
}
