// Camcorder reproduces the paper's Experiment 1 end-to-end through the
// public API: generate the 28-minute MPEG encode/write trace, run the
// three policies, print the Table 2 comparison, and dump the first 300 s
// of the Fig 7 current profiles as CSV to stdout-adjacent files.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"fcdpm"
)

func main() {
	seed := flag.Uint64("seed", 1, "MPEG trace seed")
	profileOut := flag.String("profiles", "", "optional CSV file for the FC-DPM 300 s profile")
	flag.Parse()

	cmp, err := fcdpm.Experiment1(*seed)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Experiment 1 — DVD camcorder MPEG encoding/writing (28 min)")
	fmt.Println("policy      normalized fuel   paper")
	paper := map[string]string{"Conv-DPM": "100%", "ASAP-DPM": "40.8%", "FC-DPM": "30.8%"}
	for _, r := range cmp.Rows {
		fmt.Printf("%-11s %6.1f%%           %s\n", r.Name, 100*r.Normalized, paper[r.Name])
	}
	fmt.Printf("\nFC-DPM saves %.1f%% fuel vs ASAP-DPM (paper: 24.4%%)\n", 100*cmp.SavingVsASAP)
	fmt.Printf("lifetime extension: %.2fx (paper: 1.32x)\n", cmp.LifetimeRatio)

	// Per-policy detail from the raw results.
	fmt.Println("\npolicy      sleeps  bled(A-s)  deficit(A-s)  final storage(A-s)")
	for _, r := range cmp.Rows {
		res := cmp.Results[r.Name]
		fmt.Printf("%-11s %5d   %8.2f   %10.3f   %8.2f\n",
			r.Name, res.Sleeps, res.Bled, res.Deficit, res.FinalCharge)
	}

	if *profileOut != "" {
		if err := writeProfile(*profileOut, *seed); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote FC-DPM current profile to %s\n", *profileOut)
	}
}

// writeProfile reruns FC-DPM with profile recording and writes t,load,IF.
func writeProfile(path string, seed uint64) error {
	sys := fcdpm.PaperSystem()
	dev := fcdpm.Camcorder()
	trace, err := fcdpm.CamcorderTrace(seed)
	if err != nil {
		return err
	}
	res, err := fcdpm.Run(fcdpm.SimConfig{
		Sys: sys, Dev: dev,
		Store:  fcdpm.MustSuperCap(6, 1),
		Trace:  trace,
		Policy: fcdpm.NewFCDPM(sys, dev),
		Record: fcdpm.RecordFull,
	})
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintln(f, "t_s,load_a,if_a")
	for _, p := range res.Profile {
		if p.T > 300 {
			break
		}
		fmt.Fprintf(f, "%g,%g,%g\n", p.T, p.Load, p.IF)
	}
	return nil
}
