// Multidevice: the paper's §5.4 scenario twice over — (a) real multi-core
// scaling of every served bitsliced engine measured on this host, with
// the paper's reconstruction property checked on the way (a stream's
// bytes do not depend on its worker count), and (b) the modeled
// multi-GPU aggregate of the paper's setup (2x GTX 1080 Ti at 1.92x,
// declining at 4 and 8).
package main

import (
	"bytes"
	"fmt"
	"log"
	"runtime"
	"time"

	bsrng "repro"
	"repro/internal/device"
)

func main() {
	fmt.Println("(a) measured multi-core scaling on this host")
	fmt.Printf("%-16s %-8s %-10s %-8s %s\n", "algorithm", "workers", "MB/s", "speedup", "bytes")
	buf := make([]byte, 8<<20)
	var counts []int
	for _, w := range []int{1, 2, 4, runtime.NumCPU()} {
		if w <= runtime.NumCPU() && (len(counts) == 0 || w > counts[len(counts)-1]) {
			counts = append(counts, w)
		}
	}
	for _, alg := range bsrng.ServedAlgorithms {
		var base float64
		var first []byte
		for _, w := range counts {
			mbps, prefix := measure(alg, w, buf)
			if base == 0 {
				base, first = mbps, prefix
			}
			same := "= 1 worker's"
			if !bytes.Equal(prefix, first) {
				same = "DIFFER from 1 worker's"
			}
			fmt.Printf("%-16v %-8d %-10.1f %-8s %s\n", alg, w, mbps, fmt.Sprintf("%.2fx", mbps/base), same)
		}
	}

	fmt.Println()
	fmt.Println("(b) modeled multi-GPU aggregate (paper §5.4)")
	mickey, err := device.ProfileByName(device.CalibratedProfiles, "MICKEY 2.0 (bitsliced)")
	if err != nil {
		log.Fatal(err)
	}
	d, _ := device.DeviceByName("GTX 1080 Ti")
	fmt.Print(device.FormatScaling(mickey, d, []int{1, 2, 4, 8}))
}

// measure reports a workers-wide stream's MB/s and a copy of its
// first MiB, read untimed to warm the pool up.
func measure(alg bsrng.Algorithm, workers int, buf []byte) (float64, []byte) {
	s, err := bsrng.NewStream(alg, 1, bsrng.StreamConfig{Workers: workers})
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()
	prefix := make([]byte, 1<<20)
	s.Read(prefix)
	start := time.Now()
	rounds := 0
	for time.Since(start) < 400*time.Millisecond {
		s.Read(buf)
		rounds++
	}
	el := time.Since(start).Seconds()
	return float64(rounds*len(buf)) / el / 1e6, prefix
}
