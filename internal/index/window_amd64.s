#include "textflag.h"

// The structural skip's window kernel: six byte-class bitmaps of 64
// bytes and the in-tag mask, the prefix XOR of '<' | '>' (window.go).

// MASK compares Y0 (bytes 0-31) and Y1 (bytes 32-63) with the byte
// broadcast in Y2 and leaves the 64-bit bitmap in AX.
#define MASK \
	VPCMPEQB Y0, Y2, Y3; \
	VPCMPEQB Y1, Y2, Y4; \
	VPMOVMSKB Y3, AX; \
	VPMOVMSKB Y4, BX; \
	SHLQ $32, BX; \
	ORQ BX, AX

// The bytes the kernel looks for: < > / " ' ! ?
DATA windowBytes<>+0(SB)/8, $0x003f2127222f3e3c
GLOBL windowBytes<>(SB), RODATA|NOPTR, $8

// func windowMasks(p *byte) (lt, gt, slash, dquote, squote, bang, inTag uint64)
TEXT ·windowMasks(SB), NOSPLIT, $0-64
	MOVQ p+0(FP), SI
	VMOVDQU 0(SI), Y0
	VMOVDQU 32(SI), Y1

	VPBROADCASTB windowBytes<>+0(SB), Y2
	MASK
	MOVQ AX, lt+8(FP)
	MOVQ AX, R8

	VPBROADCASTB windowBytes<>+1(SB), Y2
	MASK
	MOVQ AX, gt+16(FP)
	ORQ AX, R8

	VPBROADCASTB windowBytes<>+2(SB), Y2
	MASK
	MOVQ AX, slash+24(FP)

	VPBROADCASTB windowBytes<>+3(SB), Y2
	MASK
	MOVQ AX, dquote+32(FP)

	VPBROADCASTB windowBytes<>+4(SB), Y2
	MASK
	MOVQ AX, squote+40(FP)

	// '!' and '?' share one bitmap.
	VPBROADCASTB windowBytes<>+5(SB), Y2
	VPBROADCASTB windowBytes<>+6(SB), Y5
	VPCMPEQB Y0, Y2, Y3
	VPCMPEQB Y0, Y5, Y6
	VPOR Y3, Y6, Y3
	VPCMPEQB Y1, Y2, Y4
	VPCMPEQB Y1, Y5, Y6
	VPOR Y4, Y6, Y4
	VPMOVMSKB Y3, AX
	VPMOVMSKB Y4, BX
	SHLQ $32, BX
	ORQ BX, AX
	MOVQ AX, bang+48(FP)

	// The prefix XOR of '<' | '>' is its carry-less product with all
	// ones. VMOVQ, not MOVQ: a legacy-SSE instruction among VEX ones
	// stalls on the upper halves' state.
	VMOVQ R8, X7
	VPCMPEQB X8, X8, X8
	VPCLMULQDQ $0, X8, X7, X7
	VMOVQ X7, AX
	MOVQ AX, inTag+56(FP)
	VZEROUPPER
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

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
