package aes

// Bitsliced AES round circuits. A byte position is eight uint64 planes
// (plane k = bit k of that byte across the lanes); all functions below
// are straight-line word operations, so one call performs 64 byte
// operations at once.
//
// The S-box is the fixed Boyar–Peralta forward circuit (their depth-16
// construction: 128 gates — 34 AND, 94 XOR/XNOR — shared GF(2^4)
// inversion in the middle, linear top and bottom layers), transcribed as
// straight-line word logic in bpSbox and verified exhaustively against
// the generated scalar sbox table in the tests. It replaces the earlier
// structural Fermat-inversion S-box (four plane multiplications at 64+
// gates each plus squarings and the affine map, ~500 gate-ops per byte):
// the circuit is ~4× fewer gates and, being shallow, schedules well on a
// superscalar core. ShiftRows never runs as a pass of its own: the
// subShift* functions write each byte's S-box output planes directly at
// the byte's post-ShiftRows position (pure index renaming, zero gates),
// and MixColumns reads the renamed planes contiguously.

// shiftSrc[d] is the state byte index that ShiftRows moves into position
// d: with d = r + 4c, the source is r + 4((c+r) mod 4).
var shiftSrc = [16]int{0, 5, 10, 15, 4, 9, 14, 3, 8, 13, 2, 7, 12, 1, 6, 11}

// bpSbox is the Boyar–Peralta S-box circuit on one word column: bit i of
// ui is bit i of the input byte of one lane (u0 = least significant
// plane word), and the returned s0..s7 are the planes of sbox[input].
// All 64 lanes of the word are substituted at once.
func bpSbox(u0, u1, u2, u3, u4, u5, u6, u7 uint64) (s0, s1, s2, s3, s4, s5, s6, s7 uint64) {
	// The circuit's published names: U0 is the MOST significant input
	// bit and S0 the most significant output bit, so the plane words
	// enter in reverse order.
	x0, x1, x2, x3, x4, x5, x6, x7 := u7, u6, u5, u4, u3, u2, u1, u0

	// Top linear layer: 27 XORs expanding the 8 inputs into the shared
	// signals the nonlinear middle consumes.
	t1 := x0 ^ x3
	t2 := x0 ^ x5
	t3 := x0 ^ x6
	t4 := x3 ^ x5
	t5 := x4 ^ x6
	t6 := t1 ^ t5
	t7 := x1 ^ x2
	t8 := x7 ^ t6
	t9 := x7 ^ t7
	t10 := t6 ^ t7
	t11 := x1 ^ x5
	t12 := x2 ^ x5
	t13 := t3 ^ t4
	t14 := t6 ^ t11
	t15 := t5 ^ t11
	t16 := t5 ^ t12
	t17 := t9 ^ t16
	t18 := x3 ^ x7
	t19 := t7 ^ t18
	t20 := t1 ^ t19
	t21 := x6 ^ x7
	t22 := t7 ^ t21
	t23 := t2 ^ t22
	t24 := t2 ^ t10
	t25 := t20 ^ t17
	t26 := t3 ^ t16
	t27 := t1 ^ t12

	// Shared nonlinear middle: the tower-field GF(2^4) inversion, 63
	// gates (34 AND, 29 XOR).
	m1 := t13 & t6
	m2 := t23 & t8
	m3 := t14 ^ m1
	m4 := t19 & x7
	m5 := m4 ^ m1
	m6 := t3 & t16
	m7 := t22 & t9
	m8 := t26 ^ m6
	m9 := t20 & t17
	m10 := m9 ^ m6
	m11 := t1 & t15
	m12 := t4 & t27
	m13 := m12 ^ m11
	m14 := t2 & t10
	m15 := m14 ^ m11
	m16 := m3 ^ m2
	m17 := m5 ^ t24
	m18 := m8 ^ m7
	m19 := m10 ^ m15
	m20 := m16 ^ m13
	m21 := m17 ^ m15
	m22 := m18 ^ m13
	m23 := m19 ^ t25
	m24 := m22 ^ m23
	m25 := m22 & m20
	m26 := m21 ^ m25
	m27 := m20 ^ m21
	m28 := m23 ^ m25
	m29 := m28 & m27
	m30 := m26 & m24
	m31 := m20 & m23
	m32 := m27 & m31
	m33 := m27 ^ m25
	m34 := m21 & m22
	m35 := m24 & m34
	m36 := m24 ^ m25
	m37 := m21 ^ m29
	m38 := m32 ^ m33
	m39 := m23 ^ m30
	m40 := m35 ^ m36
	m41 := m38 ^ m40
	m42 := m37 ^ m39
	m43 := m37 ^ m38
	m44 := m39 ^ m40
	m45 := m42 ^ m41
	m46 := m44 & t6
	m47 := m40 & t8
	m48 := m39 & x7
	m49 := m43 & t16
	m50 := m38 & t9
	m51 := m37 & t17
	m52 := m42 & t15
	m53 := m45 & t27
	m54 := m41 & t10
	m55 := m44 & t13
	m56 := m40 & t23
	m57 := m39 & t19
	m58 := m43 & t3
	m59 := m38 & t22
	m60 := m37 & t20
	m61 := m42 & t1
	m62 := m45 & t4
	m63 := m41 & t2

	// Bottom linear layer: 30 XORs plus the 8 output gates (4 XOR,
	// 4 XNOR — the XNORs realize the 0x63 affine constant).
	l0 := m61 ^ m62
	l1 := m50 ^ m56
	l2 := m46 ^ m48
	l3 := m47 ^ m55
	l4 := m54 ^ m58
	l5 := m49 ^ m61
	l6 := m62 ^ l5
	l7 := m46 ^ l3
	l8 := m51 ^ m59
	l9 := m52 ^ m53
	l10 := m53 ^ l4
	l11 := m60 ^ l2
	l12 := m48 ^ m51
	l13 := m50 ^ l0
	l14 := m52 ^ m61
	l15 := m55 ^ l1
	l16 := m56 ^ l0
	l17 := m57 ^ l1
	l18 := m58 ^ l8
	l19 := m63 ^ l4
	l20 := l0 ^ l1
	l21 := l1 ^ l7
	l22 := l3 ^ l12
	l23 := l18 ^ l2
	l24 := l15 ^ l9
	l25 := l6 ^ l10
	l26 := l7 ^ l9
	l27 := l8 ^ l10
	l28 := l11 ^ l14
	l29 := l11 ^ l17

	s7 = l6 ^ l24
	s6 = ^(l16 ^ l26)
	s5 = ^(l19 ^ l28)
	s4 = l6 ^ l21
	s3 = l20 ^ l22
	s2 = l25 ^ l29
	s1 = ^(l13 ^ l27)
	s0 = ^(l6 ^ l23)
	return
}

// subShiftP fuses SubBytes and ShiftRows into one pass: the S-box output
// planes of source byte shiftSrc[b] land at byte position b of dst, so
// the row rotation costs nothing but the write index. dst must not alias
// src.
func subShiftP(dst, src *[128]uint64) {
	for b := 0; b < 16; b++ {
		s := 8 * shiftSrc[b]
		sp := (*[8]uint64)(src[s : s+8])
		dp := (*[8]uint64)(dst[8*b : 8*b+8])
		dp[0], dp[1], dp[2], dp[3], dp[4], dp[5], dp[6], dp[7] = bpSbox(
			sp[0], sp[1], sp[2], sp[3], sp[4], sp[5], sp[6], sp[7])
	}
}

// subShiftXorP is subShiftP with the round-0 AddRoundKey folded into the
// S-box input load: dst[b] = sbox(src[shiftSrc[b]] ^ rk[shiftSrc[b]]),
// saving the separate 128-plane whitening sweep at the top of the
// cipher. dst must not alias src.
func subShiftXorP(dst, src, rk *[128]uint64) {
	for b := 0; b < 16; b++ {
		s := 8 * shiftSrc[b]
		sp := (*[8]uint64)(src[s : s+8])
		kp := (*[8]uint64)(rk[s : s+8])
		dp := (*[8]uint64)(dst[8*b : 8*b+8])
		dp[0], dp[1], dp[2], dp[3], dp[4], dp[5], dp[6], dp[7] = bpSbox(
			sp[0]^kp[0], sp[1]^kp[1], sp[2]^kp[2], sp[3]^kp[3],
			sp[4]^kp[4], sp[5]^kp[5], sp[6]^kp[6], sp[7]^kp[7])
	}
}

// mixColumnsARKP fuses MixColumns and AddRoundKey into one pass over the
// (already ShiftRows-renamed) src planes: dst = MC(src) ^ rk. Each
// column's four bytes are 32 contiguous planes, and the column is
// computed in the xtime-sharing form
//
//	out_r = a_r ⊕ t ⊕ xtime(a_r ⊕ a_{r+1}),  t = a_0⊕a_1⊕a_2⊕a_3
//
// so every {02}-multiple is taken of an already-needed XOR and the
// column sum t is computed once and reused by all four rows. dst must
// not alias src.
func mixColumnsARKP(dst, src, rk *[128]uint64) {
	for c := 0; c < 4; c++ {
		base := 32 * c
		srows := [4]*[8]uint64{
			(*[8]uint64)(src[base : base+8]), (*[8]uint64)(src[base+8 : base+16]),
			(*[8]uint64)(src[base+16 : base+24]), (*[8]uint64)(src[base+24 : base+32]),
		}
		drows := [4]*[8]uint64{
			(*[8]uint64)(dst[base : base+8]), (*[8]uint64)(dst[base+8 : base+16]),
			(*[8]uint64)(dst[base+16 : base+24]), (*[8]uint64)(dst[base+24 : base+32]),
		}
		krows := [4]*[8]uint64{
			(*[8]uint64)(rk[base : base+8]), (*[8]uint64)(rk[base+8 : base+16]),
			(*[8]uint64)(rk[base+16 : base+24]), (*[8]uint64)(rk[base+24 : base+32]),
		}
		s0, s1, s2, s3 := srows[0], srows[1], srows[2], srows[3]
		var t [8]uint64
		for j := 0; j < 8; j++ {
			t[j] = s0[j] ^ s1[j] ^ s2[j] ^ s3[j]
		}
		for r := 0; r < 4; r++ {
			a, n, d, k := srows[r], srows[(r+1)&3], drows[r], krows[r]
			u0 := a[0] ^ n[0]
			u1 := a[1] ^ n[1]
			u2 := a[2] ^ n[2]
			u3 := a[3] ^ n[3]
			u4 := a[4] ^ n[4]
			u5 := a[5] ^ n[5]
			u6 := a[6] ^ n[6]
			u7 := a[7] ^ n[7]
			// xtime(u) plane map: bit j takes u_{j-1}, with u7 folded
			// into bits 0,1,3,4 (the AES polynomial 0x1B).
			d[0] = a[0] ^ t[0] ^ u7 ^ k[0]
			d[1] = a[1] ^ t[1] ^ u0 ^ u7 ^ k[1]
			d[2] = a[2] ^ t[2] ^ u1 ^ k[2]
			d[3] = a[3] ^ t[3] ^ u2 ^ u7 ^ k[3]
			d[4] = a[4] ^ t[4] ^ u3 ^ u7 ^ k[4]
			d[5] = a[5] ^ t[5] ^ u4 ^ k[5]
			d[6] = a[6] ^ t[6] ^ u5 ^ k[6]
			d[7] = a[7] ^ t[7] ^ u6 ^ k[7]
		}
	}
}

// addRoundKeyFromP writes dst = src ^ rk over all 128 planes — the final
// round's AddRoundKey fused with the copy-back from the S-box scratch.
func addRoundKeyFromP(dst, src, rk *[128]uint64) {
	for i := range dst {
		dst[i] = src[i] ^ rk[i]
	}
}
