// Command bsrng generates pseudo-random bytes with the bitsliced engines.
//
// Usage:
//
//	bsrng -alg mickey -seed 42 -n 1048576 -workers 8 > random.bin
//	bsrng -alg grain -n 16 -hex
//	bsrng -alg 'chaotic(xorgens)' -n 16 -hex
//
// The output is the seed's domain-1 segment stream (the bytes of
// bsrng.NewSegmentReader(alg, seed, 1, 0)) at every -workers.
package main

import (
	"bufio"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"

	bsrng "repro"
)

func main() {
	algName := flag.String("alg", "mickey", "algorithm: mickey, grain, aes-ctr, trivium, xorgens or chaotic(<name>)")
	seed := flag.Uint64("seed", 1, "generator seed")
	n := flag.Int64("n", 1<<20, "number of bytes to generate")
	workers := flag.Int("workers", 1, "worker engines (0 = all CPUs); every count emits the same bytes")
	useHex := flag.Bool("hex", false, "emit lowercase hex instead of raw bytes")
	flag.Parse()

	if err := run(os.Stdout, *algName, *seed, *n, *workers, *useHex); err != nil {
		fmt.Fprintln(os.Stderr, "bsrng:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, algName string, seed uint64, n int64, workers int, useHex bool) error {
	alg, err := bsrng.ParseAlgorithm(algName)
	if err != nil {
		return err
	}
	if n < 0 {
		return fmt.Errorf("negative byte count")
	}

	// Every worker count reads the same bytes: the seed's domain-1
	// stream.
	src, err := bsrng.NewStream(alg, seed, bsrng.StreamConfig{Workers: workers})
	if err != nil {
		return err
	}
	defer src.Close()

	out := bufio.NewWriterSize(w, 1<<20)
	buf := make([]byte, 64<<10)
	for n > 0 {
		k := int64(len(buf))
		if k > n {
			k = n
		}
		if _, err := io.ReadFull(src, buf[:k]); err != nil {
			return err
		}
		if useHex {
			if _, err := out.WriteString(hex.EncodeToString(buf[:k])); err != nil {
				return err
			}
		} else if _, err := out.Write(buf[:k]); err != nil {
			return err
		}
		n -= k
	}
	if useHex {
		fmt.Fprintln(out)
	}
	// Flush explicitly: a deferred Flush would drop the write error, so
	// a full disk or closed pipe would report success.
	return out.Flush()
}
