#include "textflag.h"

// func cpuHasAVX2() bool
//
// AVX2 in CPUID leaf 7, and the operating system saving the YMM state
// (OSXSAVE + AVX in leaf 1, XCR0 bits 1 and 2).
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE | AVX
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX // XMM and YMM state enabled
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $0x20, BX // AVX2
	JZ   no
	MOVB $1, ret+0(FP)
no:
	RET

// func mulRowAVX2(dst, a *float64, astride int, w *float64, k, n int)
//
// dst[j] = Σ_kk a[kk·astride]·w[kk·n+j] for the first n&^3 columns j (the
// caller does the rest), in column blocks of 24, 8 and 4. Within a block
// every column has its own accumulator lane, started at +0 and fed one
// product per kk in ascending order: VMULPD rounds the product, VADDPD
// rounds the sum, exactly as the scalar MULSD/ADDSD pair does — a fused
// multiply-add would round once and is never used. An a entry that
// compares equal to zero is skipped; a NaN compares unordered (ZF and PF
// both set), so "equal and not parity" is the skip condition and a NaN
// still poisons the row as it does in the scalar loop.
//
// DI dst cursor, SI a, R8 a stride in bytes, DX w cursor (top of the
// current column block), R11 w row stride in bytes, R9 k, R10 columns
// left; AX/BX/CX walk a, w and kk inside a block. X14 is the zero.
// k ≥ 1 (mulRow's bounds checks see to it).
TEXT ·mulRowAVX2(SB), NOSPLIT, $0-48
	MOVQ   dst+0(FP), DI
	MOVQ   a+8(FP), SI
	MOVQ   astride+16(FP), R8
	SHLQ   $3, R8
	MOVQ   w+24(FP), DX
	MOVQ   k+32(FP), R9
	MOVQ   n+40(FP), R10
	MOVQ   R10, R11
	SHLQ   $3, R11
	ANDQ   $~3, R10
	VXORPD X14, X14, X14

blk24:
	CMPQ   R10, $24
	JLT    blk8
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	MOVQ   SI, AX
	MOVQ   DX, BX
	MOVQ   R9, CX

k24:
	VBROADCASTSD (AX), Y12
	VUCOMISD     X14, X12
	JNE          mac24
	JNP          next24

mac24:
	VMULPD (BX), Y12, Y6
	VMULPD 32(BX), Y12, Y7
	VMULPD 64(BX), Y12, Y8
	VMULPD 96(BX), Y12, Y9
	VMULPD 128(BX), Y12, Y10
	VMULPD 160(BX), Y12, Y11
	VADDPD Y6, Y0, Y0
	VADDPD Y7, Y1, Y1
	VADDPD Y8, Y2, Y2
	VADDPD Y9, Y3, Y3
	VADDPD Y10, Y4, Y4
	VADDPD Y11, Y5, Y5

next24:
	ADDQ R8, AX
	ADDQ R11, BX
	DECQ CX
	JNZ  k24

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	ADDQ    $192, DI
	ADDQ    $192, DX
	SUBQ    $24, R10
	JMP     blk24

blk8:
	CMPQ   R10, $8
	JLT    blk4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ   SI, AX
	MOVQ   DX, BX
	MOVQ   R9, CX

k8:
	VBROADCASTSD (AX), Y12
	VUCOMISD     X14, X12
	JNE          mac8
	JNP          next8

mac8:
	VMULPD (BX), Y12, Y6
	VMULPD 32(BX), Y12, Y7
	VADDPD Y6, Y0, Y0
	VADDPD Y7, Y1, Y1

next8:
	ADDQ R8, AX
	ADDQ R11, BX
	DECQ CX
	JNZ  k8

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    $64, DI
	ADDQ    $64, DX
	SUBQ    $8, R10
	JMP     blk8

blk4:
	CMPQ   R10, $4
	JLT    done
	VXORPD Y0, Y0, Y0
	MOVQ   SI, AX
	MOVQ   DX, BX
	MOVQ   R9, CX

k4:
	VBROADCASTSD (AX), Y12
	VUCOMISD     X14, X12
	JNE          mac4
	JNP          next4

mac4:
	VMULPD (BX), Y12, Y6
	VADDPD Y6, Y0, Y0

next4:
	ADDQ R8, AX
	ADDQ R11, BX
	DECQ CX
	JNZ  k4

	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, DX
	SUBQ    $4, R10
	JMP     blk4

done:
	VZEROUPPER
	RET
