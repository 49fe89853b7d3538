package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
)

// streamPeriod is the number of 64-bit words in one period of the seeded
// base pattern (1 MiB).
const streamPeriod = 1 << 17

// stream is an endless seeded byte stream. Word g (bytes 8g..8g+7, little
// endian) is base[g mod period] XOR a mix of g/period, so every byte
// depends on the seed and on its absolute offset: a flipped, dropped,
// duplicated or reordered byte anywhere changes what the receiver sees.
type stream struct {
	base []uint64
}

func newStream(seed int64) *stream {
	r := rand.New(rand.NewSource(seed))
	s := &stream{base: make([]uint64, streamPeriod)}
	for i := range s.base {
		s.base[i] = r.Uint64()
	}
	return s
}

func (s *stream) word(g uint64) uint64 {
	return s.base[g%streamPeriod] ^ (g/streamPeriod+1)*0x9E3779B97F4A7C15
}

// fill writes stream bytes [off, off+len(dst)) into dst.
func (s *stream) fill(dst []byte, off int64) {
	g := uint64(off) / 8
	if head := int(off % 8); head != 0 {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], s.word(g))
		n := copy(dst, w[head:])
		dst = dst[n:]
		g++
	}
	for len(dst) >= 8 {
		binary.LittleEndian.PutUint64(dst, s.word(g))
		dst = dst[8:]
		g++
	}
	if len(dst) > 0 {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], s.word(g))
		copy(dst, w[:])
	}
}

// verifier checks a received byte stream against the seeded stream, in
// order, from offset zero.
type verifier struct {
	s       *stream
	off     int64
	want    []byte
	badAt   int64 // offset of the first mismatching byte, -1 if none
	checked int64
}

func newVerifier(s *stream) *verifier {
	return &verifier{s: s, badAt: -1}
}

// check compares the next len(p) received bytes with the stream and
// reports whether they all match.
func (v *verifier) check(p []byte) bool {
	ok := true
	for len(p) > 0 {
		n := min(len(p), 64<<10)
		if cap(v.want) < n {
			v.want = make([]byte, 64<<10)
		}
		want := v.want[:n]
		v.s.fill(want, v.off)
		if !bytes.Equal(p[:n], want) {
			ok = false
			if v.badAt < 0 {
				for i := range want {
					if p[i] != want[i] {
						v.badAt = v.off + int64(i)
						break
					}
				}
			}
		}
		v.off += int64(n)
		p = p[n:]
	}
	return ok
}

// finish checks that exactly total bytes arrived and all of them matched.
func (v *verifier) finish(total int64) error {
	if v.badAt >= 0 {
		return fmt.Errorf("stream mismatch at byte %d", v.badAt)
	}
	if v.off != total {
		return fmt.Errorf("stream length %d, sent %d", v.off, total)
	}
	return nil
}
