package seccrypto

// haveSHANI reports whether this CPU runs sha1BlocksNI: the SHA
// extensions plus the SSSE3 (PSHUFB) and SSE4.1 (PINSRD/PEXTRD)
// instructions the loop also uses. CPUID alone decides; nothing else
// selects the kernel.
var haveSHANI = probeSHANI()

func probeSHANI() bool {
	const (
		ssse3  = 1 << 9  // leaf 1 ECX
		sse41  = 1 << 19 // leaf 1 ECX
		shaExt = 1 << 29 // leaf 7 EBX
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	return ecx1&ssse3 != 0 && ecx1&sse41 != 0 && ebx7&shaExt != 0
}

// cpuid executes CPUID with EAX=leaf and ECX=sub (sha1block_amd64.s).
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// sha1BlocksNI runs the SHA-1 compression function over nblocks
// consecutive 64-byte blocks at p, updating the chaining state h in
// place (sha1block_amd64.s). Callers must check haveSHANI first.
//
//go:noescape
func sha1BlocksNI(h *[5]uint32, p *byte, nblocks int)
