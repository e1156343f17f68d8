package main

import (
	"crypto/aes"
	"crypto/hmac"
	"crypto/sha1"
	"math/rand"
	"time"
)

// Host-speed correction. The sandbox this benchmark was defined on
// changes speed by twenty to thirty percent from one second to the next
// and from one minute to the next, for wall time and CPU time alike,
// which is wider than any useful regression bound. So every timed
// interval is bracketed by readings of a fixed reference kernel that
// belongs to the benchmark, not to the program, and the end-to-end
// times are reported as they would read on a host that runs the kernel
// in refNominal: measured time divided by (kernel time / refNominal).
// A change to the program cannot move the kernel, so a gain or a loss
// shows in full; a slow phase of the host moves both and cancels. The
// intervals are short (a tenth of a second of load, one simulation
// cell, one restart), so that the host rarely changes speed inside one.
//
// The kernel does what the stack's hot path does, in stdlib code: pull
// a 64-byte line out of a map too big for the inner caches, AES the
// line, HMAC-SHA1 it, put it back. A reading is the median of refRuns
// runs, since a single run is as noisy as what it corrects.
const (
	refLines   = 100000
	refIters   = 10000
	refRuns    = 3
	refNominal = 8 * time.Millisecond
)

type speedometer struct {
	lines map[uint64][64]byte
	keys  []uint64
	pos   int // runs walk on through the keys, so none finds its lines cached by the one before
	sink  byte
	last  float64 // the latest reading
}

func newSpeedometer() *speedometer {
	rng := rand.New(rand.NewSource(1))
	s := &speedometer{lines: make(map[uint64][64]byte, refLines), keys: make([]uint64, refLines)}
	for i := range s.keys {
		s.keys[i] = rng.Uint64()
		s.lines[s.keys[i]] = [64]byte{byte(i)}
	}
	s.run() // first touch: page faults are not the host's speed
	s.last = s.reading()
	return s
}

// since takes a reading and returns the slowdown to correct the
// interval since the previous reading by: the mean of the two. A nil
// speedometer corrects nothing: the traced run's times are raw.
func (s *speedometer) since() float64 {
	if s == nil {
		return 1
	}
	now := s.reading()
	f := (s.last + now) / 2
	s.last = now
	return f
}

// reading is how many times slower than the reference host this host
// is right now.
func (s *speedometer) reading() float64 {
	var runs [refRuns]float64
	for i := range runs {
		runs[i] = s.run()
	}
	return median(runs[:])
}

// run runs the kernel once and returns its time over refNominal.
func (s *speedometer) run() float64 {
	key := []byte("0123456789abcdef")
	blk, err := aes.NewCipher(key)
	if err != nil {
		panic(err) // a 16-byte key is always valid
	}
	mac := hmac.New(sha1.New, key)
	var line [64]byte
	var sum []byte
	t0 := time.Now()
	for i := 0; i < refIters; i++ {
		s.pos = (s.pos + 7919) % refLines
		k := s.keys[s.pos]
		line = s.lines[k]
		for j := 0; j < len(line); j += aes.BlockSize {
			blk.Encrypt(line[j:j+aes.BlockSize], line[j:j+aes.BlockSize])
		}
		mac.Reset()
		mac.Write(line[:])
		sum = mac.Sum(sum[:0])
		line[0] ^= sum[0]
		s.lines[k] = line
	}
	s.sink ^= line[0]
	return float64(time.Since(t0)) / float64(refNominal)
}
