package seccrypto

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ccnvm/internal/mem"
)

func testEngine(t testing.TB) *Engine {
	t.Helper()
	e, err := NewEngine(DefaultKeys())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestCounterLineCodecRoundTrip(t *testing.T) {
	f := func(major uint64, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var c CounterLine
		c.Major = major
		for i := range c.Minors {
			c.Minors[i] = uint8(rng.Intn(MinorMax + 1))
		}
		got := DecodeCounterLine(c.Encode())
		return got == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCounterLineZeroDecodesToZero(t *testing.T) {
	var l mem.Line
	c := DecodeCounterLine(l)
	if c.Major != 0 {
		t.Fatal("zero line has nonzero major")
	}
	for i, m := range c.Minors {
		if m != 0 {
			t.Fatalf("zero line has nonzero minor %d at %d", m, i)
		}
	}
}

func TestCounterBump(t *testing.T) {
	var c CounterLine
	for i := 1; i <= MinorMax; i++ {
		if c.Bump(3) {
			t.Fatalf("unexpected overflow at bump %d", i)
		}
		if got := c.Counter(3); got != uint64(i) {
			t.Fatalf("counter = %d after %d bumps", got, i)
		}
	}
	// Next bump overflows: major++, minors reset, slot gets 1.
	c.Minors[7] = 5
	if !c.Bump(3) {
		t.Fatal("expected overflow")
	}
	if c.Major != 1 || c.Minors[3] != 1 || c.Minors[7] != 0 {
		t.Fatalf("post-overflow state wrong: %+v", c)
	}
	// Effective counters strictly increase across the overflow.
	if c.Counter(3) != 1<<MinorBits|1 {
		t.Fatalf("counter after overflow = %d", c.Counter(3))
	}
}

func TestCounterMonotoneAcrossOverflow(t *testing.T) {
	var c CounterLine
	prev := c.Counter(0)
	for i := 0; i < 3*MinorMax; i++ {
		c.Bump(0)
		cur := c.Counter(0)
		if cur <= prev {
			t.Fatalf("counter not strictly increasing: %d -> %d", prev, cur)
		}
		prev = cur
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	e := testEngine(t)
	f := func(addrRaw uint32, counter uint64, data [8]uint64) bool {
		addr := mem.Align(mem.Addr(addrRaw))
		var pt mem.Line
		for i, v := range data {
			for b := 0; b < 8; b++ {
				pt[i*8+b] = byte(v >> (8 * b))
			}
		}
		ct := e.Encrypt(addr, counter, pt)
		return e.Decrypt(addr, counter, ct) == pt
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncryptCounterZeroIsIdentity(t *testing.T) {
	e := testEngine(t)
	var pt mem.Line
	pt[10] = 42
	if e.Encrypt(640, 0, pt) != pt {
		t.Fatal("counter 0 must be identity (never-written semantics)")
	}
}

func TestEncryptionActuallyScrambles(t *testing.T) {
	e := testEngine(t)
	var pt mem.Line
	ct := e.Encrypt(0, 1, pt)
	if ct == pt {
		t.Fatal("ciphertext equals plaintext under nonzero counter")
	}
}

func TestPadUniqueness(t *testing.T) {
	e := testEngine(t)
	// Different counters, different addresses => different ciphertexts of
	// the same plaintext (pad reuse would break CME security).
	var pt mem.Line
	seen := map[mem.Line]string{}
	for _, addr := range []mem.Addr{0, 64, 4096} {
		for ctr := uint64(1); ctr <= 4; ctr++ {
			ct := e.Encrypt(addr, ctr, pt)
			if prev, dup := seen[ct]; dup {
				t.Fatalf("pad collision: (%#x,%d) with %s", uint64(addr), ctr, prev)
			}
			seen[ct] = "earlier pair"
		}
	}
}

func TestDataHMACSensitivity(t *testing.T) {
	e := testEngine(t)
	var ct mem.Line
	ct[0] = 1
	base := e.DataHMAC(64, 5, ct)
	if e.DataHMAC(64, 5, ct) != base {
		t.Fatal("HMAC not deterministic")
	}
	if e.DataHMAC(128, 5, ct) == base {
		t.Fatal("HMAC insensitive to address (splicing would pass)")
	}
	if e.DataHMAC(64, 6, ct) == base {
		t.Fatal("HMAC insensitive to counter (replay would pass)")
	}
	ct[0] = 2
	if e.DataHMAC(64, 5, ct) == base {
		t.Fatal("HMAC insensitive to data (spoofing would pass)")
	}
}

func TestNodeHMACSensitivity(t *testing.T) {
	e := testEngine(t)
	var n mem.Line
	n[3] = 9
	base := e.NodeHMAC(n)
	if e.NodeHMAC(n) != base {
		t.Fatal("node HMAC not deterministic")
	}
	n[3] = 10
	if e.NodeHMAC(n) == base {
		t.Fatal("node HMAC insensitive to child content")
	}
	if e.NodeHMAC(n) == e.DataHMAC(0, 0, n) {
		t.Fatal("node and data HMAC domains collide")
	}
}

func TestHMACSlotPackUnpack(t *testing.T) {
	var l mem.Line
	var hs [4]HMAC
	for s := range hs {
		for i := range hs[s] {
			hs[s][i] = byte(s*16 + i)
		}
		PutHMAC(&l, s, hs[s])
	}
	for s := range hs {
		if GetHMAC(l, s) != hs[s] {
			t.Fatalf("slot %d round-trip failed", s)
		}
	}
}

func TestDistinctKeysDistinctOutputs(t *testing.T) {
	k2 := DefaultKeys()
	k2.AES[0] ^= 1
	k2.HMAC[0] ^= 1
	e1 := testEngine(t)
	e2 := MustEngine(k2)
	var pt mem.Line
	pt[5] = 7
	if e1.Encrypt(0, 1, pt) == e2.Encrypt(0, 1, pt) {
		t.Fatal("different AES keys produce same ciphertext")
	}
	if e1.DataHMAC(0, 1, pt) == e2.DataHMAC(0, 1, pt) {
		t.Fatal("different HMAC keys produce same HMAC")
	}
}

func BenchmarkEncrypt(b *testing.B) {
	e := testEngine(b)
	var pt mem.Line
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pt = e.Encrypt(mem.Addr(i*64), uint64(i)+1, pt)
	}
}
