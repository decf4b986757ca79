package device

import "fmt"

// KernelProfile characterizes one PRNG kernel for the roofline projection.
type KernelProfile struct {
	Name string
	// OpsPerBit is the number of full-width word operations the kernel
	// spends per output bit.
	OpsPerBit float64
	// ALUEff is the fraction of the device's peak arithmetic rate the
	// kernel sustains (integer-pipe ratio × occupancy). Bitsliced kernels
	// are register-resident straight-line code and sustain high rates;
	// table- and state-based generators stall on memory.
	ALUEff float64
	// MemEff is the fraction of peak memory bandwidth usable for output
	// writes (coalescing quality; state traffic for stateful generators).
	MemEff float64
}

// Throughput projects the kernel onto a device: the smaller of the
// compute roof (sustained ops/s ÷ ops/bit) and the memory roof (usable
// write bandwidth), in Gbit/s.
func (k KernelProfile) Throughput(d Spec) float64 {
	compute := d.SPGflops * 1e9 * k.ALUEff / k.OpsPerBit // bits/s
	mem := d.MemBWGBs * 1e9 * 8 * k.MemEff               // bits/s
	t := compute
	if mem < t {
		t = mem
	}
	return t / 1e9
}

// Normalized is the Fig. 11 metric: projected Gbps per device GFLOPS.
func (k KernelProfile) Normalized(d Spec) float64 {
	return k.Throughput(d) / d.SPGflops
}

// AnalyticProfiles carry the word-op costs counted from this repository's
// own engines (one op = one 32-bit ALU instruction on the modeled device;
// our 64-bit CPU words count double). They are the honest,
// measurement-driven profiles; see EXPERIMENTS.md for the discrepancy
// discussion against the paper's reported ordering.
var AnalyticProfiles = []KernelProfile{
	// MICKEY 2.0 bitsliced: 551 word ops per CLOCK_KG (two 100-plane
	// register updates with the cipher tables folded into code, as counted
	// in the header of internal/mickey/clockkg_gen.go) → ×2 for 32-bit
	// datapath ÷ 64 bits out.
	{Name: "MICKEY 2.0 (bitsliced)", OpsPerBit: 17.2, ALUEff: 0.85, MemEff: 0.85},
	// Grain v1 bitsliced: ~46 ops per clock for 64 bits.
	{Name: "Grain v1 (bitsliced)", OpsPerBit: 1.5, ALUEff: 0.85, MemEff: 0.85},
	// AES-128 bitsliced CTR: ~123k ops per 64-lane batch (4096 bits).
	{Name: "AES-128 CTR (bitsliced)", OpsPerBit: 30, ALUEff: 0.85, MemEff: 0.85},
	// cuRAND MT19937: few ops/bit but serial recurrences and a 2.5 KB
	// state per generator throttle both pipes.
	{Name: "cuRAND (MT19937)", OpsPerBit: 1.0, ALUEff: 0.12, MemEff: 0.35},
	// Trivium bitsliced (repo extension): ~14 word ops per 64 output
	// bits — the cheapest kernel of all.
	{Name: "Trivium (bitsliced)", OpsPerBit: 0.45, ALUEff: 0.85, MemEff: 0.85},
}

// CalibratedProfiles anchor the model to the paper's reported numbers so
// that Fig. 10/11 can be regenerated with the published shape:
//
//   - MICKEY 2.0 at 2.90 Tb/s on the V100 and 2.72 Tb/s on the 2080 Ti
//     (§6, abstract) → ~4.8 effective ops/bit,
//   - cuRAND 40% below MICKEY on the 2080 Ti and 1.9× below on the
//     980 Ti (abstract, §1),
//   - Grain slightly below MICKEY and AES well below both, "limited by
//     the complex bitsliced S-box" (§5.2) — levels inferred from Fig. 10.
//
// The cross-device scaling (the part the anchors do not fix) is the
// model's prediction.
var CalibratedProfiles = []KernelProfile{
	{Name: "MICKEY 2.0 (bitsliced)", OpsPerBit: 4.84, ALUEff: 1.0, MemEff: 0.55},
	{Name: "Grain v1 (bitsliced)", OpsPerBit: 5.6, ALUEff: 1.0, MemEff: 0.50},
	{Name: "AES-128 CTR (bitsliced)", OpsPerBit: 14.5, ALUEff: 1.0, MemEff: 0.45},
	{Name: "cuRAND (MT19937)", OpsPerBit: 7.4, ALUEff: 1.0, MemEff: 0.40},
}

// ProfileByName finds a profile in the given set.
func ProfileByName(set []KernelProfile, name string) (KernelProfile, error) {
	for _, p := range set {
		if p.Name == name {
			return p, nil
		}
	}
	return KernelProfile{}, fmt.Errorf("device: no kernel profile %q", name)
}

// Multi-device scaling (paper §5.4) -------------------------------------

// ScalingModel captures the host-side costs of the multi-GPU scheme: the
// input partition/launch overhead per extra device and the output
// concatenation cost that grows with device count.
type ScalingModel struct {
	LaunchOverhead float64 // fractional cost per additional device
	ConcatOverhead float64 // fractional cost growing quadratically
}

// DefaultScaling reproduces the paper's observations: 1.92× on two
// GTX 1080 Ti and declining efficiency at 4–8 devices.
var DefaultScaling = ScalingModel{LaunchOverhead: 0.030, ConcatOverhead: 0.012}

// Speedup returns the aggregate speedup of n identical devices over one.
func (s ScalingModel) Speedup(n int) float64 {
	if n < 1 {
		return 0
	}
	x := float64(n - 1)
	return float64(n) / (1 + s.LaunchOverhead*x + s.ConcatOverhead*x*x)
}

// Aggregate projects a kernel across n identical devices, in Gbit/s.
func (s ScalingModel) Aggregate(k KernelProfile, d Spec, n int) float64 {
	return k.Throughput(d) * s.Speedup(n)
}
