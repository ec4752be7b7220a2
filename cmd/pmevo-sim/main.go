// Command pmevo-sim predicts the throughput of an instruction mix under
// a port mapping and reports the port pressure, in the style of
// llvm-mca's resource-pressure view (the §6 use case for inferred
// mappings).
//
// Usage:
//
//	pmevo-sim -proc SKL add_r64_r64:2 imul_r64_r64:1
//	pmevo-sim -mapping skl-mapping.json add_r64_r64:1 shl_r64_i8:3
//	pmevo-sim -proc SKL -measured -cache-dir ~/.pmevo-cache imul_r64_r64
//	pmevo-sim -proc SKL -list | grep mul
//
// Each argument is an instruction form name with an optional ":count"
// suffix. With -proc, the processor's documented ground-truth mapping is
// used; with -mapping, a JSON mapping produced by pmevo-infer.
//
// -measured additionally benchmarks the experiment on the processor's
// cycle-level virtual machine (the §4.2 harness) next to the model
// prediction; -cache-dir persists the harness's kernel-simulation cache
// across invocations so repeated queries warm-start.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"pmevo/internal/engine"
	"pmevo/internal/espec"
	"pmevo/internal/lifecycle"
	"pmevo/internal/measure"
	"pmevo/internal/portmap"
	"pmevo/internal/throughput"
	"pmevo/internal/uarch"
)

func main() {
	procName := flag.String("proc", "SKL", "processor whose ground-truth mapping to use: SKL|ZEN|A72")
	mappingFile := flag.String("mapping", "", "JSON port mapping file (overrides -proc's ground truth)")
	engineName := flag.String("engine", "bottleneck", "throughput engine: "+strings.Join(engine.Names(), "|"))
	measured := flag.Bool("measured", false,
		"also measure the experiment on the processor's virtual machine (§4.2 harness)")
	cacheDir := flag.String("cache-dir", "",
		"directory for the persistent kernel-simulation cache used by -measured")
	list := flag.Bool("list", false, "list the available instruction form names and exit")
	flag.Parse()

	eng, err := engine.ByName(*engineName)
	if err != nil {
		fatalf("%v", err)
	}

	proc, err := uarch.ByName(*procName)
	if err != nil {
		fatalf("%v", err)
	}

	if *list {
		for _, f := range proc.ISA.Forms() {
			fmt.Println(f.Name())
		}
		return
	}

	mapping := proc.GroundTruth
	if *mappingFile != "" {
		f, err := os.Open(*mappingFile)
		if err != nil {
			fatalf("open mapping: %v", err)
		}
		mapping, err = portmap.ReadJSON(f)
		f.Close()
		if err != nil {
			fatalf("parse mapping: %v", err)
		}
	}

	// Resolve instruction names through the mapping's name table when
	// available (an inferred mapping may cover a form subset), falling
	// back to the processor ISA.
	names := mapping.InstNames
	if names == nil {
		names = make([]string, proc.ISA.NumForms())
		for _, f := range proc.ISA.Forms() {
			names[f.ID] = f.Name()
		}
	}
	resolver := espec.NewResolver(names)

	if flag.NArg() == 0 {
		fatalf("no instructions given; try: pmevo-sim -proc SKL add_r64_r64:2 imul_r64_r64\n" +
			"use -list to see available instruction form names")
	}
	e, err := resolver.Parse(flag.Args())
	if err != nil {
		fatalf("%v (use -list to see available forms)", err)
	}

	tp, err := eng.Predict(mapping, e)
	if err != nil {
		fatalf("%v", err)
	}
	analysis, err := throughput.Analyze(mapping, e)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("experiment: %s\n", resolver.Format(e))
	fmt.Printf("throughput (%s engine): %.4g cycles per experiment instance\n", eng.Name(), tp)

	if *measured {
		// Benchmark on the virtual machine next to the model prediction
		// (the experiment names are translated back into the processor's
		// full form space; an inferred mapping may cover a subset).
		logf := func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "[pmevo-sim] "+format+"\n", args...)
		}
		mopts := measure.DefaultOptions()
		spill := func() {}
		if *cacheDir != "" {
			kernels, hints, err := mopts.SimCache.Load(*cacheDir)
			logf("loaded %d kernel-cache entries and %d period hints from %s", kernels, hints, *cacheDir)
			if err != nil {
				logf("cold start for the rest (%v)", err)
			}
			spill = func() {
				if err := mopts.SimCache.Spill(*cacheDir); err != nil {
					logf("spill kernel cache: %v", err)
				} else {
					logf("spilled kernel cache and period hints to %s", *cacheDir)
				}
			}
			// SIGINT/SIGTERM between warm-start and the normal spill
			// persists whatever simulations completed.
			stopSignals := lifecycle.OnSignalSpill(func() {
				logf("interrupted; spilling kernel cache")
				spill()
			})
			defer stopSignals()
		}
		full := make(portmap.Experiment, len(e))
		for i, t := range e {
			f, ok := proc.ISA.FormByName(names[t.Inst])
			if !ok {
				fatalf("form %q not in processor %s", names[t.Inst], *procName)
			}
			full[i] = portmap.InstCount{Inst: f.ID, Count: t.Count}
		}
		h, err := measure.NewHarness(proc, mopts)
		if err != nil {
			fatalf("%v", err)
		}
		mtp, err := h.Measure(full)
		if err != nil {
			fatalf("measure: %v", err)
		}
		fmt.Printf("throughput (virtual %s, median of %d noisy runs): %.4g cycles per experiment instance\n",
			*procName, mopts.Repetitions, mtp)
		// Show how the simulator earned the number: one diagnostic run
		// of the measured loop reports the fast paths' engagement (the
		// detected steady-state period and the dead cycles fast-forwarded
		// past). Both are diagnostic metadata — results are bit-identical
		// with either fast path disabled.
		body, _, err := h.BuildLoop(full)
		if err != nil {
			fatalf("%v", err)
		}
		mach, err := proc.Machine()
		if err != nil {
			fatalf("%v", err)
		}
		diag, err := mach.Run(body, mopts.WarmupIters+mopts.MeasureIters)
		if err != nil {
			fatalf("simulate: %v", err)
		}
		fmt.Printf("simulator: %d cycles, detected period %d cycles / %d iterations, %d dead cycles skipped\n",
			diag.Cycles, diag.DetectedPeriod, diag.DetectedPeriodIters, diag.SkippedCycles)
		spill()
	}

	fmt.Printf("\n")
	fmt.Print(analysis.Render(mapping.PortNames))
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "pmevo-sim: "+format+"\n", args...)
	os.Exit(1)
}
