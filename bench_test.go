package bsrng

// The root benchmark harness: one benchmark per table/figure of the
// paper's evaluation (the experiment index in DESIGN.md §4 maps each to
// its experiment id). Run with:
//
//	go test -bench=. -benchmem .
//
// cmd/experiments prints the corresponding tables.

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/bitslice"
	"repro/internal/core"
	"repro/internal/crc"
	"repro/internal/curand"
	"repro/internal/device"
	"repro/internal/grain"
	"repro/internal/lfsr"
	"repro/internal/mickey"
	"repro/internal/sp80022"
)

// E1 — Table 1: normalized throughput of the prior works (model-side
// arithmetic; the interesting output is cmd/experiments -exp table1).
func BenchmarkTable1Normalization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, w := range device.PriorWorks {
			_ = w.Normalized()
		}
	}
}

// E3 — Figure 10: the roofline projection of all four kernels on all six
// devices.
func BenchmarkFig10Throughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = device.Fig10(device.CalibratedProfiles)
	}
}

// E4 — Figure 11: the normalized comparison including the prior works.
func BenchmarkFig11Normalized(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = device.Fig11(device.CalibratedProfiles)
	}
}

// E5 — §5.4: real multi-core scaling of the bitsliced engines (the CPU
// analogue of the paper's multi-GPU experiment; the modeled version is
// cmd/experiments -exp multigpu).
func BenchmarkMultiDeviceScaling(b *testing.B) {
	seen := map[int]bool{}
	for _, workers := range []int{1, 2, 4, runtime.NumCPU()} {
		if workers > runtime.NumCPU() || seen[workers] {
			continue // each worker count runs once, named once
		}
		seen[workers] = true
		b.Run(benchName("workers", workers), func(b *testing.B) {
			s, err := NewStream(GRAIN, 1, StreamConfig{Workers: workers})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			buf := make([]byte, 1<<20)
			b.SetBytes(int64(len(buf)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Read(buf)
			}
		})
	}
}

// E6 — Table 3: cost of the NIST battery's core tests on 100 kbit of
// MICKEY output (the full battery is cmd/nist).
func BenchmarkTable3NIST(b *testing.B) {
	g, err := New(MICKEY, 1)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 100000/8)
	g.Read(buf)
	bits := sp80022.BitsFromBytes(buf)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sp80022.Frequency(bits); err != nil {
			b.Fatal(err)
		}
		if _, err := sp80022.Runs(bits); err != nil {
			b.Fatal(err)
		}
		if _, err := sp80022.BlockFrequency(bits, 128); err != nil {
			b.Fatal(err)
		}
		if _, err := sp80022.LongestRun(bits); err != nil {
			b.Fatal(err)
		}
	}
}

// E7 — Fig. 7 vs Fig. 8: the naive 64-register farm against the bitsliced
// LFSR engine.
func BenchmarkLFSRNaiveVsBitsliced(b *testing.B) {
	exps, _ := lfsr.Primitive(64)
	rng := rand.New(rand.NewSource(7))
	states := make([]uint64, 64)
	for i := range states {
		states[i] = rng.Uint64() | 1
	}
	dst := make([]uint64, 1024)
	b.Run("naive-farm", func(b *testing.B) {
		fm, _ := lfsr.NewFarm(64, exps, states)
		b.SetBytes(1024 * 8)
		for i := 0; i < b.N; i++ {
			fm.FillRaw(dst)
		}
	})
	b.Run("bitsliced", func(b *testing.B) {
		sl, _ := lfsr.NewSliced(64, exps, states, lfsr.Rename)
		b.SetBytes(1024 * 8)
		for i := 0; i < b.N; i++ {
			sl.FillRaw(dst)
		}
	})
}

// E7b — ablation: register renaming vs physical plane copies in the
// bitsliced LFSR.
func BenchmarkLFSRSwapStrategies(b *testing.B) {
	exps, _ := lfsr.Primitive(64)
	rng := rand.New(rand.NewSource(7))
	states := make([]uint64, 64)
	for i := range states {
		states[i] = rng.Uint64() | 1
	}
	dst := make([]uint64, 1024)
	for _, strat := range []struct {
		name string
		s    lfsr.ShiftStrategy
	}{{"rename", lfsr.Rename}, {"copy", lfsr.Copy}} {
		b.Run(strat.name, func(b *testing.B) {
			sl, _ := lfsr.NewSliced(64, exps, states, strat.s)
			b.SetBytes(1024 * 8)
			for i := 0; i < b.N; i++ {
				sl.FillRaw(dst)
			}
		})
	}
}

// E8 — Fig. 5 vs Fig. 6: 64 CRC-8 streams, bit-serial vs bitsliced.
func BenchmarkCRCNaiveVsBitsliced(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	streams := make([][]byte, 64)
	for l := range streams {
		streams[l] = make([]byte, 1024)
		rng.Read(streams[l])
	}
	b.Run("bit-serial", func(b *testing.B) {
		b.SetBytes(64 * 1024)
		for i := 0; i < b.N; i++ {
			for l := range streams {
				reg := crc.NewBitSerial8(crc.Poly8Maxim, 0)
				reg.Write(streams[l])
			}
		}
	})
	b.Run("bitsliced", func(b *testing.B) {
		b.SetBytes(64 * 1024)
		for i := 0; i < b.N; i++ {
			s, _ := crc.NewSliced8(crc.Poly8Maxim, nil)
			s.Write(streams)
		}
	})
}

// E9 — measured CPU throughput of every generator (the honest CPU-port
// numbers; cmd/experiments -exp cpu prints them as a table). A library
// row reads through New, so it runs whichever kernel the one-lane rule
// picks (AES-NI CTR and scalar xorgens where they are cheaper); a
// bitsliced row times the engine's 64-lane Rekey + Fill itself.
func BenchmarkCPUThroughput(b *testing.B) {
	for _, alg := range Algorithms {
		b.Run(alg.String()+"-library", func(b *testing.B) {
			g, err := New(alg, 1)
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]byte, 64<<10)
			b.SetBytes(int64(len(buf)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Read(buf)
			}
		})
		b.Run(alg.String()+"-bitsliced", func(b *testing.B) {
			pass, n, err := core.EnginePass(alg)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pass()
			}
		})
	}
	b.Run("mickey-naive", func(b *testing.B) {
		key := make([]byte, mickey.KeySize)
		m, err := mickey.NewPacked(key, nil, 0)
		if err != nil {
			b.Fatal(err)
		}
		buf := make([]byte, 4096)
		b.SetBytes(int64(len(buf)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Keystream(buf)
		}
	})
	b.Run("curand-mt19937", func(b *testing.B) {
		g := curand.NewMT19937(1)
		dst := make([]uint32, 16<<10)
		b.SetBytes(int64(4 * len(dst)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			curand.Fill32(g, dst)
		}
	})
	b.Run("curand-philox", func(b *testing.B) {
		g := curand.NewPhilox4x32(1)
		dst := make([]uint32, 16<<10)
		b.SetBytes(int64(4 * len(dst)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			curand.Fill32(g, dst)
		}
	})
}

// E10 — §4.5 ablation: staging ("shared memory") chunk size sweep.
func BenchmarkStagingAblation(b *testing.B) {
	for _, staging := range []int{1 << 10, 8 << 10, 64 << 10, 512 << 10} {
		b.Run(benchName("staging", staging), func(b *testing.B) {
			s, err := NewStream(GRAIN, 1, StreamConfig{Workers: runtime.NumCPU(), StagingBytes: staging})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			buf := make([]byte, 1<<20)
			b.SetBytes(int64(len(buf)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Read(buf)
			}
		})
	}
}

// Ablation — lane width: the 64-lane uint64 planes of the engines
// against the 32-lane uint32 planes of the paper's single-precision CUDA
// registers. grain-64-lanes is the raw Grain datapath, a lock-step
// keystream block with no segment rekeying; the two LFSR cells compare
// the plane widths on one degree-64 LFSR at equal bit volume.
func BenchmarkLaneWidth(b *testing.B) {
	b.Run("grain-64-lanes", func(b *testing.B) {
		rng := rand.New(rand.NewSource(9))
		keys := make([][]byte, bitslice.W)
		ivs := make([][]byte, bitslice.W)
		for l := range keys {
			keys[l] = make([]byte, grain.KeySize)
			ivs[l] = make([]byte, grain.IVSize)
			rng.Read(keys[l])
			rng.Read(ivs[l])
		}
		g, err := grain.NewSlicedVec[bitslice.V64](keys, ivs)
		if err != nil {
			b.Fatal(err)
		}
		var blk [64]bitslice.V64
		b.SetBytes(64 * 8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.KeystreamBlockVec(&blk)
		}
	})

	exps, _ := lfsr.Primitive(64)
	rng := rand.New(rand.NewSource(7))
	b.Run("64-lanes-uint64", func(b *testing.B) {
		states := make([]uint64, 64)
		for i := range states {
			states[i] = rng.Uint64() | 1
		}
		sl, _ := lfsr.NewSliced(64, exps, states, lfsr.Rename)
		dst := make([]uint64, 1024)
		b.SetBytes(1024 * 8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sl.FillRaw(dst)
		}
	})
	b.Run("32-lanes-uint32", func(b *testing.B) {
		var planes [64]uint32
		for i := range planes {
			planes[i] = rng.Uint32()
		}
		taps := []int{63, 61, 60, 0}
		dst := make([]uint32, 2048) // same bit volume
		b.SetBytes(1024 * 8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			head := 0
			for j := range dst {
				var fb uint32
				for _, e := range taps {
					fb ^= planes[(head+e)&63]
				}
				dst[j] = planes[head]
				head = (head + 1) & 63
				planes[(head+63)&63] = fb
			}
		}
	})
}

// E2 is static data (cmd/experiments -exp table2); Fill's one-shot
// parallel path is benchmarked here for completeness.
func BenchmarkFillParallel(b *testing.B) {
	buf := make([]byte, 4<<20)
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		if err := core.Fill(core.GRAIN, 1, 0, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func benchName(prefix string, v int) string {
	switch {
	case v >= 1<<20 && v%(1<<20) == 0:
		return prefix + "-" + itoa(v>>20) + "MiB"
	case v >= 1<<10 && v%(1<<10) == 0:
		return prefix + "-" + itoa(v>>10) + "KiB"
	}
	return prefix + "-" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
