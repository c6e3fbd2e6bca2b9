package main

import (
	"encoding/binary"
	"errors"
	"math"
	"time"
)

// Input generation. Everything the program under test receives — keys,
// values, operation choices and arrival times — is drawn here from the
// --seed argument, so one seed gives the same inputs on every commit.

const (
	// valueSize is the size of every value the benchmark writes.
	valueSize = 100
	// keySize is the size of a key, counted with the value as user bytes.
	keySize = 8
)

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rng is a splitmix64 stream: small, fast and reproducible.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: mix64(seed)} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// exp draws an exponential gap with the given mean (Poisson arrivals).
func (r *rng) exp(mean time.Duration) time.Duration {
	return time.Duration(-math.Log(1-r.float()) * float64(mean))
}

// zipf draws ranks in [0, n) with YCSB's Zipfian generator (Gray et
// al.), then scrambles the rank so the hot keys are spread over the
// key space instead of packed into the first few leaves.
type zipf struct {
	n                       uint64
	alpha, zetan, eta, half float64
	scramble                uint64
}

func newZipf(n uint64, theta float64, seed uint64) *zipf {
	zetan := 0.0
	for i := uint64(1); i <= n; i++ {
		zetan += 1 / math.Pow(float64(i), theta)
	}
	zeta2 := 1 + 1/math.Pow(2, theta)
	z := &zipf{
		n:        n,
		alpha:    1 / (1 - theta),
		zetan:    zetan,
		eta:      (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/zetan),
		half:     1 + math.Pow(0.5, theta),
		scramble: mix64(seed ^ 0x5a5a5a5a),
	}
	return z
}

// next returns a scrambled Zipf-popular index in [0, n).
func (z *zipf) next(r *rng) uint64 {
	u := r.float()
	uz := u * z.zetan
	var rank uint64
	switch {
	case uz < 1:
		rank = 0
	case uz < z.half:
		rank = 1
	default:
		rank = uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
		if rank >= z.n {
			rank = z.n - 1
		}
	}
	return mix64(rank^z.scramble) % z.n
}

// Values are self-describing so a read can be checked without a copy of
// the data: bytes [0,8) hold the key, [8,16) the version the writer
// gave it, and the rest a stream derived from (seed, key, version).

// fillValue writes the value for (key, ver) into buf[:valueSize].
func fillValue(buf []byte, seed, key, ver uint64) {
	binary.LittleEndian.PutUint64(buf[0:8], key)
	binary.LittleEndian.PutUint64(buf[8:16], ver)
	s := mix64(seed ^ mix64(key) ^ mix64(ver+0x1234567))
	var w [8]byte
	for off := 16; off < valueSize; off += 8 {
		s = mix64(s)
		binary.LittleEndian.PutUint64(w[:], s)
		copy(buf[off:valueSize], w[:])
	}
}

var (
	errValueSize = errors.New("value has the wrong size")
	errValueKey  = errors.New("value belongs to another key")
	errValueBody = errors.New("value body is corrupt")
)

// checkValue verifies val is a value some writer produced for key and
// returns its version.
func checkValue(val []byte, seed, key uint64) (uint64, error) {
	if len(val) != valueSize {
		return 0, errValueSize
	}
	if binary.LittleEndian.Uint64(val[0:8]) != key {
		return 0, errValueKey
	}
	ver := binary.LittleEndian.Uint64(val[8:16])
	var want [valueSize]byte
	fillValue(want[:], seed, key, ver)
	if string(want[16:]) != string(val[16:]) {
		return 0, errValueBody
	}
	return ver, nil
}
