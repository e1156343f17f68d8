#include "textflag.h"

// SHA-1 compression on the x86 SHA extensions, after Intel's reference
// schedule (as in Linux arch/x86/crypto/sha1_ni_asm.S). Registers:
//
//	X0      ABCD, word order reversed (A in the top dword)
//	X1, X2  E, in the top dword; the two alternate group by group
//	X3-X6   the message schedule, four words per register
//	X7      the PSHUFB mask that turns a big-endian block into words
//	X8, X9  E and ABCD saved at the top of a block
//
// Saving into X8/X9 rather than memory means the function needs no
// stack frame.

// QUAD does rounds 4g..4g+3 of a middle group g: E for this group is
// finished from the previous group's ABCD (SHA1NEXTE into e), ABCD is
// kept in enext for the next group, the schedule advances one register
// (m0 is the current words, m1..m3 the following ones) and SHA1RNDS4
// does four rounds with round function f.
#define QUAD(f, e, enext, m0, m1, m2, m3) \
	SHA1NEXTE m0, e; \
	MOVO      X0, enext; \
	SHA1MSG2  m0, m1; \
	SHA1RNDS4 $f, e, X0; \
	SHA1MSG1  m0, m3; \
	PXOR      m0, m2

// func sha1BlocksNI(h *[5]uint32, p *byte, nblocks int)
TEXT ·sha1BlocksNI(SB), NOSPLIT, $0-24
	MOVQ h+0(FP), DI
	MOVQ p+8(FP), SI
	MOVQ nblocks+16(FP), DX
	SHLQ $6, DX
	JZ   done
	ADDQ SI, DX // end of the input

	MOVOU  (DI), X0
	PSHUFL $0x1b, X0, X0
	PXOR   X1, X1
	PINSRD $3, 16(DI), X1
	MOVOU  flipMask<>(SB), X7

loop:
	MOVO X1, X8
	MOVO X0, X9

	// Rounds 0-3
	MOVOU     (SI), X3
	PSHUFB    X7, X3
	PADDL     X3, X1
	MOVO      X0, X2
	SHA1RNDS4 $0, X1, X0

	// Rounds 4-7
	MOVOU     16(SI), X4
	PSHUFB    X7, X4
	SHA1NEXTE X4, X2
	MOVO      X0, X1
	SHA1RNDS4 $0, X2, X0
	SHA1MSG1  X4, X3

	// Rounds 8-11
	MOVOU     32(SI), X5
	PSHUFB    X7, X5
	SHA1NEXTE X5, X1
	MOVO      X0, X2
	SHA1RNDS4 $0, X1, X0
	SHA1MSG1  X5, X4
	PXOR      X5, X3

	// Rounds 12-15
	MOVOU     48(SI), X6
	PSHUFB    X7, X6
	SHA1NEXTE X6, X2
	MOVO      X0, X1
	SHA1MSG2  X6, X3
	SHA1RNDS4 $0, X2, X0
	SHA1MSG1  X6, X5
	PXOR      X6, X4

	// Rounds 16-67
	QUAD(0, X1, X2, X3, X4, X5, X6)
	QUAD(1, X2, X1, X4, X5, X6, X3)
	QUAD(1, X1, X2, X5, X6, X3, X4)
	QUAD(1, X2, X1, X6, X3, X4, X5)
	QUAD(1, X1, X2, X3, X4, X5, X6)
	QUAD(1, X2, X1, X4, X5, X6, X3)
	QUAD(2, X1, X2, X5, X6, X3, X4)
	QUAD(2, X2, X1, X6, X3, X4, X5)
	QUAD(2, X1, X2, X3, X4, X5, X6)
	QUAD(2, X2, X1, X4, X5, X6, X3)
	QUAD(2, X1, X2, X5, X6, X3, X4)
	QUAD(3, X2, X1, X6, X3, X4, X5)
	QUAD(3, X1, X2, X3, X4, X5, X6)

	// Rounds 68-71
	SHA1NEXTE X4, X2
	MOVO      X0, X1
	SHA1MSG2  X4, X5
	SHA1RNDS4 $3, X2, X0
	PXOR      X4, X6

	// Rounds 72-75
	SHA1NEXTE X5, X1
	MOVO      X0, X2
	SHA1MSG2  X5, X6
	SHA1RNDS4 $3, X1, X0

	// Rounds 76-79
	SHA1NEXTE X6, X2
	MOVO      X0, X1
	SHA1RNDS4 $3, X2, X0

	// Add the block's result to the saved state.
	SHA1NEXTE X8, X1
	PADDL     X9, X0

	ADDQ $64, SI
	CMPQ SI, DX
	JNE  loop

	PSHUFL $0x1b, X0, X0
	MOVOU  X0, (DI)
	PEXTRD $3, X1, 16(DI)

done:
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// flipMask reverses all 16 bytes of a register: the block's four
// big-endian words become host words in the reversed order X0 uses.
DATA flipMask<>+0(SB)/8, $0x08090a0b0c0d0e0f
DATA flipMask<>+8(SB)/8, $0x0001020304050607
GLOBL flipMask<>(SB), RODATA|NOPTR, $16
