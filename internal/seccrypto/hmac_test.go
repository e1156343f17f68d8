package seccrypto

import (
	"crypto/hmac"
	"crypto/sha1"
	"encoding/binary"
	"math/rand"
	"testing"

	"ccnvm/internal/mem"
)

func requireSHANI(t testing.TB) {
	t.Helper()
	if !haveSHANI {
		t.Skip("CPU has no SHA extensions; engines use crypto/hmac")
	}
}

// TestSHA1BlocksMatchStdlib checks the compression function apart from
// the HMAC framing: standard SHA-1 padding over messages of every
// length from 0 to 300 bytes, run through sha1BlocksNI from the IV in
// one call, must give sha1.Sum.
func TestSHA1BlocksMatchStdlib(t *testing.T) {
	requireSHANI(t)
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 300; n++ {
		msg := make([]byte, n)
		rng.Read(msg)
		padded := append(msg[:n:n], 0x80)
		for len(padded)%sha1Block != sha1Block-8 {
			padded = append(padded, 0)
		}
		padded = binary.BigEndian.AppendUint64(padded, uint64(n)*8)
		h := sha1IV
		sha1BlocksNI(&h, &padded[0], len(padded)/sha1Block)
		var got [sha1.Size]byte
		for i, w := range h {
			binary.BigEndian.PutUint32(got[4*i:], w)
		}
		if want := sha1.Sum(msg); got != want {
			t.Fatalf("len %d: kernel %x, crypto/sha1 %x", n, got, want)
		}
	}
}

// stdlibHMAC is the reference: crypto/hmac over msg, truncated.
func stdlibHMAC(key []byte, msg []byte) HMAC {
	m := hmac.New(sha1.New, key)
	m.Write(msg)
	var h HMAC
	copy(h[:], m.Sum(nil))
	return h
}

// FuzzHMACKernel holds the fixed-length kernel to crypto/hmac on both
// message shapes under any key.
func FuzzHMACKernel(f *testing.F) {
	f.Add(make([]byte, 20), make([]byte, dataMsgBytes), true)
	f.Add([]byte("some hmac key bytes!"), []byte("a tree node"), false)
	f.Fuzz(func(t *testing.T, keyIn, msgIn []byte, data bool) {
		requireSHANI(t)
		var key [20]byte
		copy(key[:], keyIn)
		var msg [dataMsgBytes]byte
		copy(msg[:], msgIn)
		k := newHMACKernel(&key)
		var line mem.Line
		copy(line[:], msg[:])
		if data {
			addr := mem.Addr(binary.LittleEndian.Uint64(msg[mem.LineSize:]))
			counter := binary.LittleEndian.Uint64(msg[mem.LineSize+8:])
			if got, want := k.dataHMAC(addr, counter, &line), stdlibHMAC(key[:], msg[:]); got != want {
				t.Fatalf("data HMAC: kernel %x, crypto/hmac %x", got, want)
			}
			return
		}
		if got, want := k.nodeHMAC(&line), stdlibHMAC(key[:], line[:]); got != want {
			t.Fatalf("node HMAC: kernel %x, crypto/hmac %x", got, want)
		}
	})
}

// TestEngineKernelMatchesUncached runs NewEngine's kernel against
// NewEngineUncached's crypto/hmac on random messages of both shapes.
func TestEngineKernelMatchesUncached(t *testing.T) {
	requireSHANI(t)
	kern := testEngine(t)
	if kern.kern == nil {
		t.Fatal("NewEngine on a SHA-NI CPU did not select the kernel")
	}
	golden, err := NewEngineUncached(DefaultKeys())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var l mem.Line
	for i := 0; i < 20000; i++ {
		rng.Read(l[:])
		addr, counter := mem.Addr(rng.Uint64()), rng.Uint64()
		if got, want := kern.computeDataHMAC(addr, counter, &l), golden.computeDataHMAC(addr, counter, &l); got != want {
			t.Fatalf("message %d: data HMAC %x, want %x", i, got, want)
		}
		if got, want := kern.computeNodeHMAC(&l), golden.computeNodeHMAC(&l); got != want {
			t.Fatalf("message %d: node HMAC %x, want %x", i, got, want)
		}
	}
}

func TestHMACKernelAllocs(t *testing.T) {
	requireSHANI(t)
	e := testEngine(t)
	var l mem.Line
	var ctr uint64
	if n := testing.AllocsPerRun(100, func() {
		ctr++
		l[0]++
		_ = e.computeDataHMAC(64, ctr, &l)
		_ = e.computeNodeHMAC(&l)
	}); n != 0 {
		t.Fatalf("kernel HMAC allocates %v times per call pair", n)
	}
}

var sinkHMAC HMAC

// BenchmarkHMAC times one uncached HMAC of each shape through the
// kernel (NewEngine) and crypto/hmac (NewEngineUncached).
func BenchmarkHMAC(b *testing.B) {
	engines := []struct {
		name string
		new  func(Keys) (*Engine, error)
	}{{"kernel", NewEngine}, {"stdlib", NewEngineUncached}}
	for _, shape := range []string{"data", "node"} {
		for _, eng := range engines {
			b.Run(shape+"/"+eng.name, func(b *testing.B) {
				if eng.name == "kernel" {
					requireSHANI(b)
				}
				e, err := eng.new(DefaultKeys())
				if err != nil {
					b.Fatal(err)
				}
				var l mem.Line
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					l[0] = byte(i)
					if shape == "data" {
						sinkHMAC = e.computeDataHMAC(mem.Addr(i*64), uint64(i)+1, &l)
					} else {
						sinkHMAC = e.computeNodeHMAC(&l)
					}
				}
			})
		}
	}
}
