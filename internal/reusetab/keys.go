package reusetab

import "math"

// Key encoding. The hash key is composed by concatenating the bit patterns
// of the input values in a fixed order (paper §2.1). MiniC models int as a
// 32-bit C int and float as a C double, so ints contribute 4 bytes and
// floats 8 bytes, little-endian.

// AppendInt appends the 32-bit bit pattern of a MiniC int to key.
func AppendInt(key []byte, v int64) []byte {
	u := uint32(v)
	return append(key, byte(u), byte(u>>8), byte(u>>16), byte(u>>24))
}

// AppendFloat appends the 64-bit bit pattern of a MiniC float to key.
func AppendFloat(key []byte, v float64) []byte {
	u := math.Float64bits(v)
	return append(key,
		byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
		byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
}

// DecodeIntsInto interprets a key as a sequence of 32-bit ints (the
// common all-int input case) for histogram rendering: it appends the
// key's decoded ints to dst and returns the extended slice, reusing dst's
// capacity — decoding a large census with one scratch buffer allocates
// only until the buffer reaches the widest key. ok is false (and dst is
// returned unchanged) when the key length is not a multiple of 4.
func DecodeIntsInto(dst []int32, key string) ([]int32, bool) {
	if len(key)%4 != 0 {
		return dst, false
	}
	for i := 0; i < len(key); i += 4 {
		b := key[i:]
		dst = append(dst, int32(uint32(b[0])|uint32(b[1])<<8|uint32(b[2])<<16|uint32(b[3])<<24))
	}
	return dst, true
}
