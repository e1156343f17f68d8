package seccrypto

import (
	"crypto/sha1"
	"encoding/binary"

	"ccnvm/internal/mem"
)

// sha1Block is SHA-1's block size in bytes.
const sha1Block = sha1.BlockSize

// hmacKernel is HMAC-SHA-1 fixed to the engine's two message shapes and
// run on sha1BlocksNI. The key is absorbed once, into the ipad and opad
// midstates, and each message buffer carries its SHA-1 padding and
// length word from construction on, so an HMAC is three compressions —
// two inner blocks and one outer — with no hash.Hash, no state
// marshalling and no allocation. Its output equals crypto/hmac's bit
// for bit; NewEngineUncached keeps crypto/hmac as the reference.
type hmacKernel struct {
	ipad, opad [5]uint32 // SHA-1 state after the key block xor ipad / opad

	data  [2 * sha1Block]byte // ciphertext ‖ addr ‖ counter, padded for 64+80 bytes
	node  [2 * sha1Block]byte // child line, padded for 64+64 bytes
	outer [sha1Block]byte     // inner digest, padded for 64+20 bytes
}

// dataMsgBytes is the data HMAC's message: ciphertext, addr, counter.
const dataMsgBytes = mem.LineSize + 16

// sha1IV is SHA-1's initial chaining state.
var sha1IV = [5]uint32{0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0}

// newHMACKernel absorbs key and lays down the padding, or returns nil
// when the CPU has no SHA-1 kernel.
func newHMACKernel(key *[20]byte) *hmacKernel {
	if !haveSHANI {
		return nil
	}
	k := &hmacKernel{}
	var pad [sha1Block]byte
	for i := range pad {
		pad[i] = 0x36
	}
	for i, b := range key {
		pad[i] ^= b
	}
	k.ipad = sha1IV
	sha1BlocksNI(&k.ipad, &pad[0], 1)
	for i := range pad {
		pad[i] ^= 0x36 ^ 0x5c
	}
	k.opad = sha1IV
	sha1BlocksNI(&k.opad, &pad[0], 1)

	padTail(k.data[:], dataMsgBytes)
	padTail(k.node[:], mem.LineSize)
	padTail(k.outer[:], sha1.Size)
	return k
}

// padTail writes SHA-1's padding into buf after a msgLen-byte message:
// the 0x80 marker, zeros, and in the last eight bytes the bit length of
// everything hashed, which includes the key block in front.
func padTail(buf []byte, msgLen int) {
	buf[msgLen] = 0x80
	binary.BigEndian.PutUint64(buf[len(buf)-8:], uint64(sha1Block+msgLen)*8)
}

// dataHMAC authenticates ciphertext ‖ addr ‖ counter.
func (k *hmacKernel) dataHMAC(addr mem.Addr, counter uint64, ciphertext *mem.Line) HMAC {
	copy(k.data[:mem.LineSize], ciphertext[:])
	binary.LittleEndian.PutUint64(k.data[mem.LineSize:], uint64(addr))
	binary.LittleEndian.PutUint64(k.data[mem.LineSize+8:], counter)
	return k.sum(&k.data)
}

// nodeHMAC authenticates one tree node's content.
func (k *hmacKernel) nodeHMAC(child *mem.Line) HMAC {
	copy(k.node[:mem.LineSize], child[:])
	return k.sum(&k.node)
}

// sum finishes an HMAC over a padded two-block inner message.
func (k *hmacKernel) sum(inner *[2 * sha1Block]byte) HMAC {
	h := k.ipad
	sha1BlocksNI(&h, &inner[0], 2)
	for i, w := range h {
		binary.BigEndian.PutUint32(k.outer[4*i:], w)
	}
	h = k.opad
	sha1BlocksNI(&h, &k.outer[0], 1)
	var m HMAC
	for i := range len(m) / 4 {
		binary.BigEndian.PutUint32(m[4*i:], h[i])
	}
	return m
}
