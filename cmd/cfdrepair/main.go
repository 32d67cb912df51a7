// Command cfdrepair repairs a CSV instance with respect to a CFD set
// (the paper's Section 6, NP-complete by Theorem 6.1) and writes the
// repaired instance.
//
// Usage:
//
//	cfdrepair -data tax.csv -cfds cfds.txt -out repaired.csv
//
// cfdrepair is a thin client of the live repair engine: the instance
// is loaded into an in-memory monitor, a repair suggester plans one
// cost-ranked fix per live violation, and each round the planned fixes
// are applied as an ordinary ChangeSet and the suggester re-plans only
// what the batch touched — the same engine cfdserve serves over HTTP
// as GET /v1/repairs and POST /v1/repairs/apply, so what this command
// does offline a client of a running node can do one suggestion at a
// time against live data.
//
// Exit status is 2 on error, 1 when the suggest-apply loop could not
// certify I′ ⊨ Σ within its round budget, 0 on a certified repair.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro"
	"repro/internal/cliutil"
)

func main() {
	var (
		dataPath  = flag.String("data", "", "CSV instance to repair (required)")
		cfdPath   = flag.String("cfds", "", "CFD file in text notation (required)")
		outPath   = flag.String("out", "repaired.csv", "output CSV for the repaired instance")
		maxPasses = flag.Int("maxpasses", 0, "suggest-apply round budget (0 = default)")
		verbose   = flag.Bool("v", false, "print every applied change")
	)
	flag.Parse()
	if *dataPath == "" || *cfdPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	code, err := run(*dataPath, *cfdPath, *outPath, *maxPasses, *verbose)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cfdrepair:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func run(dataPath, cfdPath, outPath string, maxPasses int, verbose bool) (int, error) {
	rel, sigma, err := cliutil.LoadInputs(dataPath, cfdPath)
	if err != nil {
		return 2, err
	}
	// LoadMonitor refuses an inconsistent Σ, which has no repair at all.
	m, err := repro.LoadMonitor(rel, sigma, repro.MonitorOptions{})
	if err != nil {
		return 2, err
	}
	defer m.Close()
	sg, err := repro.WatchRepairs(m, repro.SuggestOptions{})
	if err != nil {
		return 2, err
	}
	defer sg.Close()

	// Each round plans every live suggestion and applies the merged
	// ChangeSet; the suggester re-plans only the violations that batch
	// touched. The budget bounds rounds, not edits — one round usually
	// clears every independent violation at once.
	if maxPasses <= 0 {
		maxPasses = int(m.ViolationCount()/8) + 16
	}
	edits, rounds := 0, 0
	cost := 0.0
	for ; rounds < maxPasses; rounds++ {
		sg.Refresh()
		sugs := sg.Suggestions()
		if len(sugs) == 0 {
			break
		}
		ids := make([]string, 0, len(sugs))
		for _, s := range sugs {
			ids = append(ids, s.ID)
			cost += s.Cost
		}
		cs, ces, err := sg.Plan(ids)
		if err != nil {
			return 2, err
		}
		if verbose {
			for _, ce := range ces {
				fmt.Printf("key %d: %s: %q -> %q\n", ce.Key, ce.Attr, ce.From, ce.To)
			}
		}
		edits += len(ces)
		if cs.Len() == 0 {
			break
		}
		if _, err := m.Apply(cs); err != nil {
			return 2, err
		}
	}
	satisfied := m.Satisfied()
	fmt.Printf("repair: %d changes over %d rounds, cost %.0f, satisfied=%v\n",
		edits, rounds, cost, satisfied)

	out, err := os.Create(outPath)
	if err != nil {
		return 2, err
	}
	defer out.Close()
	if err := repro.WriteCSV(out, m.Snapshot()); err != nil {
		return 2, err
	}
	fmt.Printf("wrote repaired instance to %s\n", outPath)
	if !satisfied {
		return 1, nil
	}
	return 0, nil
}
