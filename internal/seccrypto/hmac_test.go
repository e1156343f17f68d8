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

// TestEngineKernelMatchesUncached holds NewEngine's HMACs of both
// shapes to NewReferenceEngine's over random lines, addresses and
// counters. On a SHA-NI CPU this runs the kernel against crypto/hmac;
// elsewhere both engines use crypto/hmac.
func TestEngineKernelMatchesUncached(t *testing.T) {
	e := testEngine(t)
	if haveSHANI && e.kern == nil {
		t.Fatal("NewEngine on a SHA-NI CPU did not select the kernel")
	}
	golden, err := NewReferenceEngine(DefaultKeys())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var l mem.Line
	for i := 0; i < 20000; i++ {
		rng.Read(l[:])
		addr, counter := mem.Addr(rng.Uint64()), rng.Uint64()
		if got, want := e.DataHMAC(addr, counter, l), golden.DataHMAC(addr, counter, l); got != want {
			t.Fatalf("message %d: data HMAC %x, want %x", i, got, want)
		}
		if got, want := e.NodeHMAC(l), golden.NodeHMAC(l); got != want {
			t.Fatalf("message %d: node HMAC %x, want %x", i, got, want)
		}
	}
}

// TestMemoizedEngineMatchesUncached holds NewEngine to a fresh
// NewReferenceEngine over a trace with heavy key reuse: repeated
// addresses, counters and payloads must give the same ciphertext,
// plaintext and HMACs every time, and Decrypt must invert Encrypt,
// counter 0 (the never-written path) included. NewEngine keeps no memo
// tables; the trace guards against any per-key state creeping back in.
func TestMemoizedEngineMatchesUncached(t *testing.T) {
	e := testEngine(t)
	golden, err := NewReferenceEngine(DefaultKeys())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))

	// Small pools force repeats: addresses, counters and line payloads
	// all recur.
	addrs := make([]mem.Addr, 32)
	for i := range addrs {
		addrs[i] = mem.Addr(rng.Intn(1<<20)) * mem.LineSize
	}
	lines := make([]mem.Line, 16)
	for i := range lines {
		rng.Read(lines[i][:])
	}

	for i := 0; i < 20000; i++ {
		addr := addrs[rng.Intn(len(addrs))]
		counter := uint64(rng.Intn(8))
		pt := lines[rng.Intn(len(lines))]

		ct := e.Encrypt(addr, counter, pt)
		if want := golden.Encrypt(addr, counter, pt); ct != want {
			t.Fatalf("op %d: Encrypt(%#x, %d) diverges", i, addr, counter)
		}
		if got, want := e.Decrypt(addr, counter, ct), golden.Decrypt(addr, counter, ct); got != want {
			t.Fatalf("op %d: Decrypt(%#x, %d) diverges", i, addr, counter)
		} else if got != pt {
			t.Fatalf("op %d: Decrypt does not invert Encrypt", i)
		}
		if got, want := e.DataHMAC(addr, counter, ct), golden.DataHMAC(addr, counter, ct); got != want {
			t.Fatalf("op %d: DataHMAC(%#x, %d) diverges", i, addr, counter)
		}
		if got, want := e.NodeHMAC(pt), golden.NodeHMAC(pt); got != want {
			t.Fatalf("op %d: NodeHMAC diverges", i)
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
		_ = e.DataHMAC(64, ctr, l)
		_ = e.NodeHMAC(l)
	}); n != 0 {
		t.Fatalf("kernel HMAC allocates %v times per call pair", n)
	}
}

var sinkHMAC HMAC

// BenchmarkHMAC times one HMAC of each shape through the kernel
// (NewEngine) and crypto/hmac (NewReferenceEngine).
func BenchmarkHMAC(b *testing.B) {
	engines := []struct {
		name string
		new  func(Keys) (*Engine, error)
	}{{"kernel", NewEngine}, {"stdlib", NewReferenceEngine}}
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
						sinkHMAC = e.DataHMAC(mem.Addr(i*64), uint64(i)+1, l)
					} else {
						sinkHMAC = e.NodeHMAC(l)
					}
				}
			})
		}
	}
}
