// Command cadbench regenerates every experiment row of EXPERIMENTS.md:
// one experiment per exhibit of the paper (figures, worked examples and
// the §6 requirements), each verifying the paper's qualitative claim and
// measuring this implementation's behaviour.
//
// Usage:
//
//	cadbench            # run all experiments
//	cadbench -exp E7    # run one experiment
//	cadbench -list      # list experiments
//
// Every selected experiment runs; the exit status is 1 if any of them
// failed and 2 if -exp names none.
package main

import (
	"flag"
	"fmt"
	"os"
)

// experiment is one EXPERIMENTS.md generator.
type experiment struct {
	id    string
	title string
	run   func() error
}

var experiments = []experiment{
	{"E1", "Figure 1: flip-flop as a complex/composite object", runE1},
	{"E2", "Figure 2: interface/implementation with value inheritance", runE2},
	{"E3", "§4.2: abstraction hierarchy depth", runE3},
	{"E4", "Figures 3+4: component closure of a composite", runE4},
	{"E5", "§4: tailored permeability (SomeOf_Gate)", runE5},
	{"E6", "Figure 5: steel construction at scale", runE6},
	{"E7", "§2: copy import vs view inheritance", runE7},
	{"E8", "§6: version selection policies", runE8},
	{"E9", "§6: lock inheritance", runE9},
	{"E10", "§6: expansion locking with access control", runE10},
	{"E11", "§3: DDL corpus", runE11},
	{"E12", "durability: journal replay and checkpoints", runE12},
}

func main() {
	expFlag := flag.String("exp", "", "run a single experiment (e.g. E7)")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	if *list {
		for _, e := range experiments {
			fmt.Printf("%-4s %s\n", e.id, e.title)
		}
		return
	}
	ran, failed := 0, 0
	for _, e := range experiments {
		if *expFlag != "" && e.id != *expFlag {
			continue
		}
		fmt.Printf("==== %s: %s ====\n", e.id, e.title)
		if err := e.run(); err != nil {
			fmt.Fprintf(os.Stderr, "%s FAILED: %v\n", e.id, err)
			failed++
		}
		fmt.Println()
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *expFlag)
		os.Exit(2)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "%d of %d experiments failed\n", failed, ran)
		os.Exit(1)
	}
}

// row prints one aligned table row.
func row(cols ...any) {
	for i, c := range cols {
		if i > 0 {
			fmt.Print("  ")
		}
		fmt.Printf("%-14v", c)
	}
	fmt.Println()
}
