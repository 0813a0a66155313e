#include "textflag.h"

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

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func rowsAVX2(w, ps, qs, one, frc []float64)
//
// Per row r with mass a = ps[r] ≠ 0, on the row's slices
// wrow = w[r:], one[r:], frc[r:] (DI, R8, R9 advance one bin per
// row) and m_j = a·qs[j]:
//
//	wrow[0]   += m_0·one[0]
//	wrow[j+1]  = (wrow[j+1] + m_j·frc[j]) + m_{j+1}·one[j+1]   (0 ≤ j < nq−1)
//	wrow[nq]  += m_{nq−1}·frc[nq−1]
//
// The interior loop runs four values of j per iteration and the rest
// one at a time. Every product is rounded before it is added (no FMA),
// so each lane rounds exactly like rowsGeneric.
TEXT ·rowsAVX2(SB), NOSPLIT, $0-120
	MOVQ w_base+0(FP), DI
	MOVQ ps_base+24(FP), R10
	MOVQ ps_len+32(FP), R11
	MOVQ qs_base+48(FP), SI
	MOVQ qs_len+56(FP), DX
	MOVQ one_base+72(FP), R8
	MOVQ frc_base+96(FP), R9
	DECQ DX                  // DX = nq−1 interior bins per row
	MOVQ DX, R12
	SHRQ $2, R12             // R12 = 4-bin blocks per row
	TESTQ R11, R11
	JZ   done

row:
	MOVQ (R10), R13
	SHLQ $1, R13             // drop the sign: ±0 rows are skipped
	JZ   next
	VBROADCASTSD (R10), Y0   // Y0 = a in every lane

	// First bin.
	VMULSD (SI), X0, X1
	VMULSD (R8), X1, X1
	VADDSD (DI), X1, X1
	VMOVSD X1, (DI)

	XORQ AX, AX              // AX = j
	MOVQ R12, BX
	TESTQ BX, BX
	JZ   tail

block:
	VMULPD (SI)(AX*8), Y0, Y1    // m_j
	VMULPD 8(SI)(AX*8), Y0, Y2   // m_{j+1}
	VMULPD (R9)(AX*8), Y1, Y1    // m_j·frc[j]
	VMULPD 8(R8)(AX*8), Y2, Y2   // m_{j+1}·one[j+1]
	VADDPD 8(DI)(AX*8), Y1, Y1   // wrow[j+1] + m_j·frc[j]
	VADDPD Y2, Y1, Y1
	VMOVUPD Y1, 8(DI)(AX*8)
	ADDQ $4, AX
	DECQ BX
	JNZ  block

tail:
	CMPQ AX, DX
	JGE  last
	VMULSD (SI)(AX*8), X0, X1
	VMULSD 8(SI)(AX*8), X0, X2
	VMULSD (R9)(AX*8), X1, X1
	VMULSD 8(R8)(AX*8), X2, X2
	VADDSD 8(DI)(AX*8), X1, X1
	VADDSD X2, X1, X1
	VMOVSD X1, 8(DI)(AX*8)
	INCQ AX
	JMP  tail

last:
	// AX = nq−1: wrow[nq] += m_{nq−1}·frc[nq−1].
	VMULSD (SI)(AX*8), X0, X1
	VMULSD (R9)(AX*8), X1, X1
	VADDSD 8(DI)(AX*8), X1, X1
	VMOVSD X1, 8(DI)(AX*8)

next:
	ADDQ $8, R10
	ADDQ $8, DI
	ADDQ $8, R8
	ADDQ $8, R9
	DECQ R11
	JNZ  row

done:
	VZEROUPPER
	RET
