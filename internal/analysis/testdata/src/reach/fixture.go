package main

import "flicker/internal/analysis/testdata/src/reach/lower"

// job's Run is called only through lower.Runner, which a package that
// cannot name job declares.
type job struct{}

func (job) Run() {}

// failure's Error only satisfies error: the standard library calls it.
type failure struct{}

func (failure) Error() string { return "failure" }

func main() { lower.Drive(job{}) }

func unreferenced() {}
