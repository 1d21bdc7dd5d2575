package tree

// DiffOracle is diffOracle for load_test.go, which sits outside the
// package because its inputs come from packages that import this one.
var DiffOracle = diffOracle
