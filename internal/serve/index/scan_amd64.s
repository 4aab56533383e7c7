#include "textflag.h"

// func passingAVX2(sigs []uint64, want uint64) int
//
// passingGeneric's contract, 16 signatures to an iteration: each YMM
// register holds four, is or'ed with the lanes mask, has want
// subtracted, is and'ed with the mask again and compared against it,
// so a passing signature leaves all ones in its quadword. One VPTEST of
// the four results decides the 16; on a hit VMOVMSKPD and BSF find the
// first. The last len(sigs)%16 go through the scalar loop.
TEXT ·passingAVX2(SB), NOSPLIT, $0-40
	MOVQ sigs_base+0(FP), SI
	MOVQ sigs_len+8(FP), CX
	MOVQ want+24(FP), DX
	MOVQ $0x8080808080808080, R8
	MOVQ SI, DI                  // DI: the next signature to read
	CMPQ CX, $16
	JB   scalar

	// VEX-encoded moves into the broadcast sources: a legacy-SSE MOVQ
	// here costs a state transition on every call.
	VMOVQ        R8, X14
	VPBROADCASTQ X14, Y14        // lanes
	VMOVQ        DX, X15
	VPBROADCASTQ X15, Y15        // want
	MOVQ         CX, R9
	ANDQ         $-16, R9
	LEAQ         (SI)(R9*8), R9  // R9: the end of the 16-wide part

	PCALIGN $32
wide:
	VPOR     (DI), Y14, Y0
	VPOR     32(DI), Y14, Y1
	VPOR     64(DI), Y14, Y2
	VPOR     96(DI), Y14, Y3
	VPSUBQ   Y15, Y0, Y0
	VPSUBQ   Y15, Y1, Y1
	VPSUBQ   Y15, Y2, Y2
	VPSUBQ   Y15, Y3, Y3
	VPAND    Y14, Y0, Y0
	VPAND    Y14, Y1, Y1
	VPAND    Y14, Y2, Y2
	VPAND    Y14, Y3, Y3
	VPCMPEQQ Y14, Y0, Y0
	VPCMPEQQ Y14, Y1, Y1
	VPCMPEQQ Y14, Y2, Y2
	VPCMPEQQ Y14, Y3, Y3
	VPOR     Y0, Y1, Y4
	VPOR     Y2, Y3, Y5
	VPOR     Y4, Y5, Y4
	VPTEST   Y4, Y4
	JNZ      hit
	ADDQ     $128, DI
	CMPQ     DI, R9
	JB       wide
	VZEROUPPER
	JMP      scalar

hit:
	// One mask bit per signature of the 16, in order; the lowest set
	// bit is the first that passes.
	VMOVMSKPD Y0, AX
	VMOVMSKPD Y1, BX
	SHLQ      $4, BX
	ORQ       BX, AX
	VMOVMSKPD Y2, BX
	SHLQ      $8, BX
	ORQ       BX, AX
	VMOVMSKPD Y3, BX
	SHLQ      $12, BX
	ORQ       BX, AX
	VZEROUPPER
	BSFQ      AX, AX
	SUBQ      SI, DI
	SHRQ      $3, DI
	ADDQ      DI, AX
	MOVQ      AX, ret+32(FP)
	RET

scalar:
	LEAQ (SI)(CX*8), R9          // R9: the end of sigs
	JMP  scalarTest

scalarNext:
	MOVQ (DI), AX
	ORQ  R8, AX
	SUBQ DX, AX
	ANDQ R8, AX
	CMPQ AX, R8
	JEQ  found
	ADDQ $8, DI

scalarTest:
	CMPQ DI, R9
	JB   scalarNext

found:
	SUBQ SI, DI
	SHRQ $3, DI
	MOVQ DI, ret+32(FP)
	RET

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
