package bitslice

import "encoding/binary"

// Tile is the staging area of the lane store (paper §4.5's staged,
// coalesced writes): eight consecutive 64-lane keystream blocks, row k
// holding block k, so that t[k][L] is the k-th little-endian word of
// lane L's 64-byte tile line. At 4 KiB it belongs in the engine,
// allocated with it; a tile on the stack would escape through the
// blocks callback of Store.
type Tile [8][64]uint64

// Store writes lane L's keystream into bufs[L] for every lane: the
// buffers have one length, a multiple of 8, and bufs[L] receives lane
// L's words in order, little-endian. blocks fills every row of the
// slice it is given with the next keystream blocks in order, row k
// with a whole block (row[L] = lane L's next 8 bytes).
//
// Each full tile of eight blocks reaches lane L's buffer as one whole
// 64-byte line, where a block-at-a-time scatter makes 8 partial stores
// per line at the buffers' stride. A tail shorter than 64 bytes is
// filled one block per row and written the same way, row by row.
func (t *Tile) Store(bufs [][]byte, blocks func(rows [][64]uint64)) {
	n := len(bufs[0])
	off := 0
	for ; off+64 <= n; off += 64 {
		blocks(t[:])
		for l, b := range bufs {
			line := (*[64]byte)(b[off:])
			binary.LittleEndian.PutUint64(line[0:], t[0][l])
			binary.LittleEndian.PutUint64(line[8:], t[1][l])
			binary.LittleEndian.PutUint64(line[16:], t[2][l])
			binary.LittleEndian.PutUint64(line[24:], t[3][l])
			binary.LittleEndian.PutUint64(line[32:], t[4][l])
			binary.LittleEndian.PutUint64(line[40:], t[5][l])
			binary.LittleEndian.PutUint64(line[48:], t[6][l])
			binary.LittleEndian.PutUint64(line[56:], t[7][l])
		}
	}
	rows := t[:(n-off)/8]
	if len(rows) == 0 {
		return
	}
	blocks(rows)
	for l, b := range bufs {
		for k := range rows {
			binary.LittleEndian.PutUint64(b[off+8*k:], rows[k][l])
		}
	}
}
