package core

// Source64 adapts a Generator to math/rand's Source64 contract, so the
// BSRNG engines can drive any stdlib consumer (rand.New(src).Float64()
// etc.).
type Source64 struct{ g *Generator }

// NewSource64 builds the adapter.
func NewSource64(alg Algorithm, seed uint64) (*Source64, error) {
	g, err := NewGenerator(alg, seed)
	if err != nil {
		return nil, err
	}
	return &Source64{g: g}, nil
}

// Uint64 returns the next 64 generator bits.
func (s *Source64) Uint64() uint64 { return s.g.Uint64() }

// Int63 returns a non-negative 63-bit value.
func (s *Source64) Int63() int64 { return int64(s.g.Uint64() >> 1) }

// Seed is a no-op: the underlying cipher engines are seeded at
// construction (stream-cipher key schedules cannot be cheaply re-run).
// Build a new Source64 to change the seed.
func (s *Source64) Seed(int64) {}
