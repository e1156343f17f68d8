//go:build !amd64

package seccrypto

// haveSHANI is false off amd64: there is no kernel, and every engine
// authenticates through crypto/hmac.
const haveSHANI = false

func sha1BlocksNI(h *[5]uint32, p *byte, nblocks int) {
	panic("seccrypto: no SHA-1 block kernel on this architecture")
}
