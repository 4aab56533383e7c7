// Command pidcan-bench runs the repository's benchmark; see
// bench/README.md.
package main

import (
	"os"

	"pidcan/bench"
)

func main() { os.Exit(bench.Main(os.Args[1:], os.Stdout, os.Stderr)) }
