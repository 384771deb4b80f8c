package tensor

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (xorshift64* with a splitmix64-seeded state). Every stochastic component
// in the repository draws from an explicit *RNG so that experiments are
// reproducible from a single seed and goroutine-local generators never
// contend on a shared lock.
type RNG struct {
	state uint64
	spare float64 // cached second Box-Muller variate
	hasSp bool
}

// NewRNG returns a generator seeded from seed. Any seed, including 0, is
// valid: the state is passed through splitmix64 to avoid weak states.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed resets the generator to a state derived from seed.
func (r *RNG) Seed(seed uint64) {
	// splitmix64 scrambling so consecutive seeds give unrelated streams.
	z := seed + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 0x9E3779B97F4A7C15
	}
	r.state = z
	r.hasSp = false
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Split returns a new generator whose stream is independent of (but
// deterministically derived from) the receiver's current state. Use it to
// hand child components their own seeds.
func (r *RNG) Split() *RNG { return NewRNG(r.Uint64()) }

// Float64 returns a uniform value in [0,1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float32 returns a uniform value in [0,1).
func (r *RNG) Float32() float32 {
	return float32(r.Uint64()>>40) / (1 << 24)
}

// Intn returns a uniform integer in [0,n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: RNG.Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal variate (Box-Muller, with caching).
func (r *RNG) NormFloat64() float64 {
	if r.hasSp {
		r.hasSp = false
		return r.spare
	}
	for {
		u := r.Float64()
		if u == 0 {
			continue
		}
		v := r.Float64()
		rad := math.Sqrt(-2 * math.Log(u))
		th := 2 * math.Pi * v
		r.spare = rad * math.Sin(th)
		r.hasSp = true
		return rad * math.Cos(th)
	}
}

// NormFloat32 returns a standard normal variate as float32.
func (r *RNG) NormFloat32() float32 { return float32(r.NormFloat64()) }

// Perm returns a pseudo-random permutation of [0,n): Shuffle over the
// identity, the stream a caller shuffling its own buffer draws.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle permutes [0,n) by calling swap for each exchange.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Exp returns an exponentially distributed variate with rate 1.
func (r *RNG) Exp() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Gamma returns a Gamma(alpha, 1) variate using the Marsaglia–Tsang method.
// It is the building block for Dirichlet non-IID data partitioning.
func (r *RNG) Gamma(alpha float64) float64 {
	if alpha < 1 {
		// Boost: Gamma(a) = Gamma(a+1) * U^(1/a)
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		return r.Gamma(alpha+1) * math.Pow(u, 1/alpha)
	}
	d := alpha - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u == 0 {
			continue
		}
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Dirichlet fills out with a Dirichlet(alpha,...,alpha) sample of length n.
func (r *RNG) Dirichlet(alpha float64, n int) []float64 {
	out := make([]float64, n)
	var sum float64
	for i := range out {
		out[i] = r.Gamma(alpha)
		sum += out[i]
	}
	if sum == 0 {
		for i := range out {
			out[i] = 1 / float64(n)
		}
		return out
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// Randn returns a tensor with i.i.d. N(0, std²) entries.
func Randn(r *RNG, std float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = r.NormFloat32() * std
	}
	return t
}

// RandUniform returns a tensor with i.i.d. U[lo,hi) entries.
func RandUniform(r *RNG, lo, hi float32, shape ...int) *Tensor {
	t := New(shape...)
	span := hi - lo
	for i := range t.Data {
		t.Data[i] = lo + span*r.Float32()
	}
	return t
}
