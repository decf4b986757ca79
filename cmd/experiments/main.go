// Command experiments regenerates every table and figure of the paper's
// evaluation section (see DESIGN.md §4 for the experiment index):
//
//	experiments -exp table1    prior GPU PRNGs and their normalized rates
//	experiments -exp table2    the six evaluation GPU platforms
//	experiments -exp fig10     projected throughput per GPU per kernel
//	experiments -exp fig11     normalized comparison with prior works
//	experiments -exp multigpu  §5.4 multi-device scaling
//	experiments -exp table3    NIST battery on the MICKEY output (scaled)
//	experiments -exp cpu       measured throughput of this repo's engines
//	experiments -exp all       everything above
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	bsrng "repro"
	"repro/internal/core"
	"repro/internal/curand"
	"repro/internal/device"
	"repro/internal/mickey"
	"repro/internal/sp80022"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table1, table2, fig10, fig11, multigpu, table3, cpu, all")
	analytic := flag.Bool("analytic", false, "use measured-cost kernel profiles instead of paper-calibrated ones")
	streams := flag.Int("streams", 32, "table3: number of streams")
	bits := flag.Int("bits", 100000, "table3: bits per stream")
	flag.Parse()

	profiles := device.CalibratedProfiles
	profileName := "paper-calibrated"
	if *analytic {
		profiles = device.AnalyticProfiles
		profileName = "analytic (measured op costs)"
	}

	run := func(name string, f func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		fmt.Printf("==== %s ====\n", name)
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	run("table1", func() error {
		fmt.Println("Paper Table 1: previously proposed PRNG implementations on GPU")
		fmt.Print(device.FormatTable1())
		return nil
	})
	run("table2", func() error {
		fmt.Println("Paper Table 2: evaluation GPU platforms")
		fmt.Print(device.FormatTable2())
		return nil
	})
	run("fig10", func() error {
		fmt.Printf("Paper Figure 10: projected throughput (Gbit/s), %s profiles\n", profileName)
		fmt.Print(device.FormatFig10(profiles))
		return nil
	})
	run("fig11", func() error {
		fmt.Printf("Paper Figure 11: normalized throughput (Gbps/GFLOPS), %s profiles\n", profileName)
		fmt.Print(device.FormatFig11(profiles))
		return nil
	})
	run("multigpu", func() error {
		mickeyProf, err := device.ProfileByName(profiles, "MICKEY 2.0 (bitsliced)")
		if err != nil {
			return err
		}
		d, _ := device.DeviceByName("GTX 1080 Ti")
		fmt.Println("Paper §5.4: multi-GPU scaling (2x GTX 1080 Ti measured 1.92x)")
		fmt.Print(device.FormatScaling(mickeyProf, d, []int{1, 2, 4, 8}))
		return nil
	})
	run("table3", func() error { return table3(*streams, *bits) })
	run("cpu", cpuThroughput)
}

// table3 regenerates the paper's NIST table on the bitsliced MICKEY
// output (scaled by default; use -streams 1000 -bits 1000000 for the
// paper's full configuration).
func table3(streams, bits int) error {
	fmt.Printf("Paper Table 3: NIST SP 800-22 on bitsliced MICKEY output (%d x %d bits)\n", streams, bits)
	byteLen := (bits + 7) / 8
	streamBits := make([][]uint8, streams)
	for i := range streamBits {
		g, err := bsrng.New(bsrng.MICKEY, uint64(1000+i))
		if err != nil {
			return err
		}
		buf := make([]byte, byteLen)
		g.Read(buf)
		streamBits[i] = sp80022.BitsFromBytes(buf)[:bits]
	}
	fmt.Printf("%-24s %-10s %-10s %s\n", "Test", "P-value", "Proportion", "Result")
	for _, s := range sp80022.Summarize(sp80022.RunStreams(streamBits, sp80022.Params{})) {
		fmt.Println(s.String())
	}
	return nil
}

// cpuThroughput measures this host's real engine throughput — the honest
// CPU-port numbers behind the analytic kernel profiles.
func cpuThroughput() error {
	fmt.Printf("Measured throughput on this host (%d cores):\n", runtime.NumCPU())
	fmt.Printf("%-36s %12s\n", "engine", "Gbit/s")

	measure := func(name string, bytesPerRound int, f func()) {
		const target = 300 * time.Millisecond
		start := time.Now()
		rounds := 0
		for time.Since(start) < target {
			f()
			rounds++
		}
		el := time.Since(start).Seconds()
		gbps := float64(rounds*bytesPerRound) * 8 / el / 1e9
		fmt.Printf("%-36s %12.3f\n", name, gbps)
	}

	// Naive (row-major) MICKEY baseline: one instance.
	key := make([]byte, mickey.KeySize)
	pk, err := mickey.NewPacked(key, nil, 0)
	if err != nil {
		return err
	}
	nb := make([]byte, 1<<14)
	measure("MICKEY 2.0 naive (1 instance)", len(nb), func() { pk.Keystream(nb) })

	// Bitsliced rows time the engine's 64-lane Rekey + Fill; library rows
	// read through bsrng, which runs the kernel the one-lane rule picks.
	for _, alg := range bsrng.Algorithms {
		pass, n, err := core.EnginePass(alg)
		if err != nil {
			return err
		}
		measure(fmt.Sprintf("%s bitsliced (1 core)", alg), n, pass)
	}
	buf := make([]byte, 1<<20)
	for _, alg := range bsrng.Algorithms {
		g, err := bsrng.New(alg, 1)
		if err != nil {
			return err
		}
		measure(fmt.Sprintf("%s library (1 core)", alg), len(buf), func() { g.Read(buf) })
	}
	for _, alg := range bsrng.Algorithms {
		s, err := bsrng.NewStream(alg, 1, bsrng.StreamConfig{})
		if err != nil {
			return err
		}
		measure(fmt.Sprintf("%s library (all cores)", alg), len(buf), func() { s.Read(buf) })
		s.Close()
	}

	mt := curand.NewMT19937(1)
	w32 := make([]uint32, 1<<18)
	measure("MT19937 baseline (1 core)", 4*len(w32), func() { curand.Fill32(mt, w32) })
	ph := curand.NewPhilox4x32(1)
	measure("Philox4x32-10 baseline (1 core)", 4*len(w32), func() { curand.Fill32(ph, w32) })
	return nil
}
