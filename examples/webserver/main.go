// Webserver: the paper's apache scenario (§VI-D, Fig 9) — an
// interactive server under an oscillating open-loop request load with a
// per-request latency QoS. The CASH runtime rides the load curve,
// renting more Slices and cache at the peaks and shedding them in the
// troughs, while race-to-idle pays for the peak all day.
package main

import (
	"fmt"
	"log"

	"cash"
	"cash/internal/experiment"
	"cash/internal/workload"
)

func main() {
	stream := workload.DefaultApacheStream()
	const targetLatency = 110_000 // cycles per request, as in the paper

	opts := experiment.ServerOpts{
		Arrivals:            stream,
		TargetLatencyCycles: targetLatency,
		Horizon:             120_000_000,
	}
	opts.Tolerance = 0.10

	// The latency controllers regulate q = target/latency toward 1.0.
	// Latency QoS is a ratio, not a throughput, so the server variant
	// runs whole-quantum configurations with the committed QoS guard
	// and extra headroom (see internal/figs.Fig9).
	runtime, err := cash.NewRuntime(1.0, cash.RuntimeOptions{Seed: 3, SingleConfig: true, GuardStyle: cash.GuardCommitted, Margin: 0.15})
	if err != nil {
		log.Fatal(err)
	}
	res, err := experiment.RunServer(runtime, opts)
	if err != nil {
		log.Fatal(err)
	}

	// Compare with worst-case provisioning: a big virtual core held for
	// the whole day.
	provisioned := cash.RaceToIdle{
		WorstCase: cash.Config{Slices: 6, L2KB: 1024},
		TargetQoS: 1.0,
	}
	ref, err := experiment.RunServer(provisioned, opts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("request stream:  %.1f–%.1f requests/Mcycle, %d instr/request\n",
		stream.BaseRate-stream.Amplitude, stream.BaseRate+stream.Amplitude,
		stream.InstrsPerRequest)
	fmt.Printf("latency target:  %d cycles/request\n\n", targetLatency)

	report := func(name string, r experiment.ServerResult) {
		fmt.Printf("%-18s served=%-5d mean latency=%6.0f cycles  violations=%4.1f%%  cost=$%.3g\n",
			name, r.Served, r.MeanLatency, 100*r.ViolationRate, r.TotalCost)
	}
	report("CASH", res)
	report("provisioned", ref)
	if ref.TotalCost > 0 {
		fmt.Printf("\nCASH cost saving vs worst-case provisioning: %.0f%%\n",
			100*(1-res.TotalCost/ref.TotalCost))
	}

	// Show the load-following behaviour: quartiles of cost rate at low
	// versus high request rate.
	var lowCost, highCost []float64
	for _, s := range res.Samples {
		if s.RequestRate < stream.BaseRate {
			lowCost = append(lowCost, s.CostRate)
		} else {
			highCost = append(highCost, s.CostRate)
		}
	}
	fmt.Printf("CASH mean cost rate at low load:  $%.4f/hr\n", mean(lowCost))
	fmt.Printf("CASH mean cost rate at high load: $%.4f/hr\n", mean(highCost))
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
