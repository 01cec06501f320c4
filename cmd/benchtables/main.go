// Command benchtables regenerates every table and figure of the paper's
// evaluation (Section 7) from the platform simulation and prints the
// paper's reported values next to the measured ones.
//
// Usage:
//
//	benchtables             # all experiments
//	benchtables -only t1    # one experiment: t1 t2 t3 t4 f6 f8 f9 ca 7.5 abl
//	benchtables -t3scale 1  # Table 3 at full scale (7:22 kernel build)
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"flicker/internal/bench"
)

func main() {
	only := flag.String("only", "", "run a single experiment: t1,t2,t3,t4,f6,f8,f9,ca,7.5,abl,nextgen,multicore")
	t3scale := flag.Float64("t3scale", 1.0, "Table 3 build scale (1.0 = the paper's full 7:22.6 build)")
	flag.Parse()

	tables, err := bench.Render(os.Stdout, *only, *t3scale)
	if err != nil {
		log.Fatal(err)
	}
	if len(tables) == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *only)
		os.Exit(2)
	}
}
