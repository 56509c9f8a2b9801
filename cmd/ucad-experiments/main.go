// Command ucad-experiments regenerates the paper's tables and figures
// on the synthetic workloads. Every UCAD detector scores through the
// float64 reference kernel with no score cache.
//
// Usage:
//
//	ucad-experiments -all                 # everything at demo scale
//	ucad-experiments -table 2 -scale quick
//	ucad-experiments -figure 8 -scale paper -seed 7
//
// That is the whole flag surface; flags_test.go fails when a flag is
// added or removed without this block following.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/ucad/ucad/internal/experiments"
)

func main() {
	scale := flag.String("scale", "demo", "experiment scale: quick, demo or paper")
	table := flag.Int("table", 0, "regenerate one table (1-7; 7 is the A1-A6 attack-taxonomy table)")
	figure := flag.Int("figure", 0, "regenerate one figure (6-8)")
	all := flag.Bool("all", false, "regenerate every table and figure")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	opt := experiments.DefaultOptions()
	opt.Seed = *seed
	switch *scale {
	case "quick":
		opt.Scale = experiments.ScaleQuick
	case "demo":
		opt.Scale = experiments.ScaleDemo
	case "paper":
		opt.Scale = experiments.ScalePaper
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}

	w := os.Stdout
	run := func(name string, f func()) {
		start := time.Now()
		f()
		fmt.Fprintf(w, "[%s completed in %s]\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	ran := false
	if *all || *table == 1 {
		run("Table 1", func() { experiments.Table1(opt, w) })
		ran = true
	}
	if *all || *table == 2 {
		run("Table 2", func() { experiments.Table2(opt, w) })
		ran = true
	}
	if *all || *table == 3 {
		run("Table 3", func() { experiments.Table3(opt, w) })
		ran = true
	}
	if *all || *table == 4 {
		run("Table 4", func() { experiments.Table4(opt, w) })
		ran = true
	}
	if *all || *table == 5 {
		run("Table 5", func() { experiments.Table5(opt, w) })
		ran = true
	}
	if *all || *table == 6 {
		run("Table 6", func() { experiments.Table6(opt, w) })
		ran = true
	}
	if *all || *table == 7 {
		run("Table 7", func() { experiments.TableAttacks(opt, w) })
		ran = true
	}
	if *all || *figure == 6 {
		run("Figure 6", func() { experiments.Figure6(opt, w) })
		ran = true
	}
	if *all || *figure == 7 {
		run("Figure 7", func() { experiments.Figure7(opt, w) })
		ran = true
	}
	if *all || *figure == 8 {
		run("Figure 8", func() { experiments.Figure8(opt, w) })
		ran = true
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}
