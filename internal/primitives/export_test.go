package primitives

// BuildDefault exposes the default library's constructor to the external
// tests, which compare the shared library against a fresh build.
var BuildDefault = buildDefault
