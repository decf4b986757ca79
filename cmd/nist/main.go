// Command nist runs the SP 800-22 battery against a generator or a file
// and prints a Table 3-style report (uniformity P-value, proportion,
// verdict per test).
//
// Usage:
//
//	nist -alg mickey -streams 64 -bits 100000        # scaled Table 3
//	nist -alg mickey -streams 1000 -bits 1000000     # the paper's full run
//	nist -file random.bin -streams 10 -bits 1000000  # test a file
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	bsrng "repro"
	"repro/internal/sp80022"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: flag parsing, report generation and
// exit-status mapping (0 ok, 1 runtime failure, 2 usage error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nist", flag.ContinueOnError)
	fs.SetOutput(stderr)
	algName := fs.String("alg", "mickey", "generator: mickey, grain, aes-ctr, trivium, xorgens or chaotic(<name>)")
	file := fs.String("file", "", "read bits from a file instead of a generator")
	streams := fs.Int("streams", 64, "number of bit streams")
	bits := fs.Int("bits", 100000, "bits per stream")
	seed := fs.Uint64("seed", 1, "base seed (stream i uses seed+i)")
	skipSlow := fs.Bool("fast", false, "skip the slow linear-complexity test")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if err := report(stdout, *algName, *file, *streams, *bits, *seed, *skipSlow); err != nil {
		fmt.Fprintln(stderr, "nist:", err)
		return 1
	}
	return 0
}

func report(w io.Writer, algName, file string, streams, bits int, seed uint64, skipSlow bool) error {
	if streams < 1 || bits < 128 {
		return fmt.Errorf("need streams ≥ 1 and bits ≥ 128")
	}
	params := sp80022.Params{SkipExpensiveTests: skipSlow}

	streamBits := make([][]uint8, streams)
	if file != "" {
		data, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		all := sp80022.BitsFromBytes(data)
		if len(all) < streams*bits {
			return fmt.Errorf("file has %d bits, need %d", len(all), streams*bits)
		}
		for i := range streamBits {
			streamBits[i] = all[i*bits : (i+1)*bits]
		}
	} else {
		alg, err := bsrng.ParseAlgorithm(algName)
		if err != nil {
			return err
		}
		byteLen := (bits + 7) / 8
		for i := range streamBits {
			g, err := bsrng.New(alg, seed+uint64(i))
			if err != nil {
				return err
			}
			buf := make([]byte, byteLen)
			g.Read(buf)
			streamBits[i] = sp80022.BitsFromBytes(buf)[:bits]
		}
	}

	results := sp80022.RunStreams(streamBits, params)

	source := file
	if source == "" {
		source = algName + " (bitsliced)"
	}
	fmt.Fprintf(w, "NIST SP 800-22 battery: %d streams x %d bits, alpha=%.2f, source=%s\n\n",
		streams, bits, sp80022.Alpha, source)
	fmt.Fprintf(w, "%-24s %-10s %-10s %s\n", "Test", "P-value", "Proportion", "Result")
	for _, s := range sp80022.Summarize(results) {
		fmt.Fprintln(w, s.String())
	}
	lo, hi := sp80022.ProportionBounds(streams, sp80022.Alpha)
	fmt.Fprintf(w, "\nproportion acceptance interval for %d streams: [%.4f, %.4f]\n", streams, lo, hi)
	fmt.Fprintln(w, "uniformity threshold: P ≥ 0.0001 (SP 800-22 §4.2.2)")
	return nil
}
