// Command benchcmp compares two sets of pidcan-bench result files
// against the bounds in BENCHMARK.json; see bench/README.md.
package main

import (
	"os"

	"pidcan/bench"
)

func main() { os.Exit(bench.Compare(os.Args[1:], os.Stdout, os.Stderr)) }
