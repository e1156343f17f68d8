package seccrypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha1"
	"encoding/binary"
	"fmt"
	"hash"

	"ccnvm/internal/mem"
)

// Keys holds the two secrets of the secure processor: the AES key used
// for pad generation and the HMAC key used for data and counter HMACs.
// In hardware both live in on-chip fuses/registers inside the TCB.
type Keys struct {
	AES  [16]byte
	HMAC [20]byte
}

// DefaultKeys returns a fixed deterministic key pair. Simulations are
// reproducible by default; callers wanting distinct domains can supply
// their own keys.
func DefaultKeys() Keys {
	var k Keys
	for i := range k.AES {
		k.AES[i] = byte(0xA5 ^ i*7)
	}
	for i := range k.HMAC {
		k.HMAC[i] = byte(0x3C ^ i*11)
	}
	return k
}

// Engine performs the actual cryptography: OTP generation, block
// encryption/decryption and HMAC computation. Every call does the full
// AES/SHA-1 work; nothing is memoized. Engines from NewEngine compute
// every data and node HMAC with the fixed-length SHA-NI kernel
// (hmac.go) when CPUID reports the SHA extensions, and with a reusable
// crypto/hmac instance otherwise; the two agree bit for bit. An Engine
// owns its scratch buffers and is therefore not safe for concurrent use
// — give each goroutine its own.
type Engine struct {
	block cipher.Block
	mac   hash.Hash
	sum   [sha1.Size]byte
	kern  *hmacKernel // nil: HMACs go through mac

	// Scratch buffers keep hot-path crypto allocation free: slices of
	// local arrays passed to hash/cipher interface methods escape, so
	// inputs are staged in engine-owned memory instead.
	msg  [dataMsgBytes]byte // HMAC input: line content (+ addr/counter header)
	seed [16]byte           // AES pad seed
	pad  mem.Line           // the one-time pad Encrypt XORs in
}

// NewEngine builds an Engine from keys, with the SHA-NI HMAC kernel
// where the CPU has one. It fails only if the AES key size is rejected
// by the cipher package, which cannot happen for the fixed 16-byte key
// type, but the error is propagated for form.
func NewEngine(k Keys) (*Engine, error) {
	e, err := NewReferenceEngine(k)
	if err != nil {
		return nil, err
	}
	e.kern = newHMACKernel(&k.HMAC)
	return e, nil
}

// NewReferenceEngine builds an Engine that computes every HMAC with
// crypto/hmac, whatever the CPU. Equivalence tests and the torture
// reference machine use it as the golden reference for NewEngine's
// HMAC kernel.
func NewReferenceEngine(k Keys) (*Engine, error) {
	b, err := aes.NewCipher(k.AES[:])
	if err != nil {
		return nil, fmt.Errorf("seccrypto: %w", err)
	}
	return &Engine{block: b, mac: hmac.New(sha1.New, k.HMAC[:])}, nil
}

// MustEngine is NewEngine with panic-on-error for tests and examples.
func MustEngine(k Keys) *Engine {
	e, err := NewEngine(k)
	if err != nil {
		panic(err)
	}
	return e
}

// computePad generates the 64-byte one-time pad for (addr, counter)
// into e.pad: four AES blocks, each encrypting a seed of the line
// address, the effective counter and the block index within the line.
// Seed uniqueness is the CME security requirement; it holds because
// counters never repeat for the same address and the address/block-
// index pair separates pads spatially.
func (e *Engine) computePad(addr mem.Addr, counter uint64) {
	binary.LittleEndian.PutUint64(e.seed[0:8], uint64(addr))
	binary.LittleEndian.PutUint64(e.seed[8:16], counter)
	for i := 0; i < mem.LineSize/aes.BlockSize; i++ {
		e.seed[7] ^= byte(i) // fold the intra-line block index into the seed
		e.block.Encrypt(e.pad[i*aes.BlockSize:(i+1)*aes.BlockSize], e.seed[:])
		e.seed[7] ^= byte(i)
	}
}

// Encrypt XORs plaintext with the OTP of (addr, counter).
//
// Counter value 0 means "never written": the pad is skipped so that an
// all-zero NVM image decodes to all-zero plaintext without touching the
// cipher. Real systems achieve the same effect with an initialization
// sweep; eliding it keeps sparse images cheap and is behaviourally
// identical.
func (e *Engine) Encrypt(addr mem.Addr, counter uint64, plaintext mem.Line) mem.Line {
	if counter == 0 {
		return plaintext
	}
	e.computePad(addr, counter)
	var ct mem.Line
	for i := 0; i < mem.LineSize; i += 8 {
		binary.LittleEndian.PutUint64(ct[i:],
			binary.LittleEndian.Uint64(plaintext[i:])^binary.LittleEndian.Uint64(e.pad[i:]))
	}
	return ct
}

// Decrypt inverts Encrypt; CME is an XOR stream so the operations are
// symmetric.
func (e *Engine) Decrypt(addr mem.Addr, counter uint64, ciphertext mem.Line) mem.Line {
	return e.Encrypt(addr, counter, ciphertext)
}

// HMAC is a 128-bit truncated authentication code.
type HMAC [mem.HMACSize]byte

// DataHMAC computes the data HMAC of one block: a keyed hash over the
// encrypted data, its address and its effective counter, truncated to
// 128 bits. Including the MT-protected counter is what lets the Bonsai
// scheme leave data blocks out of the tree while remaining immune to
// replay. Without the kernel, the message (the ciphertext followed by
// the addr/counter header) is staged in the engine's scratch buffer so
// nothing escapes to the heap per call.
func (e *Engine) DataHMAC(addr mem.Addr, counter uint64, ciphertext mem.Line) HMAC {
	if e.kern != nil {
		return e.kern.dataHMAC(addr, counter, &ciphertext)
	}
	copy(e.msg[:mem.LineSize], ciphertext[:])
	binary.LittleEndian.PutUint64(e.msg[mem.LineSize:mem.LineSize+8], uint64(addr))
	binary.LittleEndian.PutUint64(e.msg[mem.LineSize+8:], counter)
	e.mac.Reset()
	e.mac.Write(e.msg[:])
	var h HMAC
	copy(h[:], e.mac.Sum(e.sum[:0]))
	return h
}

// NodeHMAC computes the counter HMAC of a Merkle-tree child: a keyed
// hash over the child node's 64-byte content, truncated to 128 bits.
// The parent node stores one such HMAC per child; position binding comes
// from the slot ordering inside the parent, so the child address is
// deliberately not an input — this keeps default (all-zero) subtrees
// uniform per level, which lets sparse images memoize them.
func (e *Engine) NodeHMAC(child mem.Line) HMAC {
	if e.kern != nil {
		return e.kern.nodeHMAC(&child)
	}
	copy(e.msg[:mem.LineSize], child[:])
	e.mac.Reset()
	e.mac.Write(e.msg[:mem.LineSize])
	var h HMAC
	copy(h[:], e.mac.Sum(e.sum[:0]))
	return h
}

// PutHMAC writes h into slot s (0..3) of line l.
func PutHMAC(l *mem.Line, s int, h HMAC) {
	copy(l[s*mem.HMACSize:(s+1)*mem.HMACSize], h[:])
}

// GetHMAC extracts slot s (0..3) of line l.
func GetHMAC(l mem.Line, s int) HMAC {
	var h HMAC
	copy(h[:], l[s*mem.HMACSize:(s+1)*mem.HMACSize])
	return h
}
