package wire

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func lzbPatterns(t testing.TB) map[string][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	random := make([]byte, 70_000)
	rng.Read(random)
	numeric := make([]byte, 0, 64*1024)
	for i := 0; len(numeric) < 64*1024; i++ {
		// Monotone counters with a few varying low bytes — the shape of
		// delta-encoded record columns.
		numeric = append(numeric, 0, 0, 0, byte(i>>8), byte(i), 0, byte(i%7), byte(i%13))
	}
	return map[string][]byte{
		"empty":      {},
		"one":        {42},
		"short":      []byte("abc"),
		"zeros":      make([]byte, 100_000),
		"repeat":     bytes.Repeat([]byte("the quick brown fox "), 4000),
		"random":     random,
		"numeric":    numeric,
		"longrun":    append(bytes.Repeat([]byte{7}, 300), []byte("tail-literals-without-a-match")...),
		"window":     append(append([]byte("MARKER-BLOCK"), make([]byte, lzbMaxOffset)...), []byte("MARKER-BLOCK")...),
		"mixed":      append(random[:5000:5000], bytes.Repeat([]byte("ABCD"), 10_000)...),
		"hello-text": []byte(strings.Repeat("hello, hello, hello! ", 3)),
	}
}

func TestLZBRoundTrip(t *testing.T) {
	c := lzbCodec{}
	for name, src := range lzbPatterns(t) {
		enc := c.Encode(nil, src)
		if len(enc) > len(src)+5 {
			t.Errorf("%s: encoded to %d bytes, stored fallback should cap at %d", name, len(enc), len(src)+5)
		}
		dec, err := c.Decode(nil, enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !bytes.Equal(dec, src) {
			t.Fatalf("%s: round trip changed %d bytes to %d", name, len(src), len(dec))
		}
	}
}

func TestLZBCompressesStructuredData(t *testing.T) {
	c := lzbCodec{}
	pat := lzbPatterns(t)
	for _, name := range []string{"zeros", "repeat"} {
		src := pat[name]
		enc := c.Encode(nil, src)
		if len(enc) >= len(src)/2 {
			t.Errorf("%s: %d bytes compressed to only %d — expected at least 2x", name, len(src), len(enc))
		}
	}
	// Counter-style numeric columns compress less than pure runs but must
	// still shrink meaningfully.
	src := pat["numeric"]
	if enc := c.Encode(nil, src); len(enc) > len(src)*3/4 {
		t.Errorf("numeric: %d bytes compressed to only %d — expected at least 25%% savings", len(src), len(enc))
	}
}

func TestLZBStoredFallback(t *testing.T) {
	c := lzbCodec{}
	src := lzbPatterns(t)["random"]
	enc := c.Encode(nil, src)
	if enc[0] != blockStored {
		t.Fatalf("incompressible block used method %d, want stored", enc[0])
	}
	if len(enc) != len(src)+5 {
		t.Fatalf("stored block is %d bytes, want %d", len(enc), len(src)+5)
	}
}

func TestLZBDecodeAppends(t *testing.T) {
	c := lzbCodec{}
	enc := c.Encode(nil, []byte("payload"))
	out, err := c.Decode([]byte("prefix-"), enc)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "prefix-payload" {
		t.Fatalf("got %q", out)
	}
}

func TestLZBDecodeRejectsMalformed(t *testing.T) {
	c := lzbCodec{}
	good := c.Encode(nil, bytes.Repeat([]byte("abcd"), 100))
	cases := map[string][]byte{
		"empty":          {},
		"short-header":   good[:3],
		"bad-method":     append([]byte{9}, good[1:]...),
		"huge-rawlen":    {blockLZB, 0xFF, 0xFF, 0xFF, 0xFF},
		"truncated-body": good[:len(good)-1],
		"stored-wrong-len": func() []byte {
			s := c.Encode(nil, lzbPatterns(t)["random"][:64])
			return s[:len(s)-2]
		}(),
		"zero-offset":    {blockLZB, 0, 0, 0, 8, 0x40, 'a', 'b', 'c', 'd', 0, 0},
		"far-offset":     {blockLZB, 0, 0, 0, 8, 0x40, 'a', 'b', 'c', 'd', 0xFF, 0xFF},
		"over-declared":  {blockLZB, 0, 0, 0, 2, 0x40, 'a', 'b', 'c', 'd'},
		"under-declared": {blockLZB, 0, 0, 0, 9, 0x40, 'a', 'b', 'c', 'd'},
	}
	for name, in := range cases {
		if _, err := c.Decode(nil, in); err == nil {
			t.Errorf("%s: malformed block decoded without error", name)
		}
	}
}

func TestForName(t *testing.T) {
	if c, err := ForName(""); err != nil || c != nil {
		t.Fatalf("empty name: %v %v", c, err)
	}
	if c, err := ForName(CodecRaw); err != nil || c != nil {
		t.Fatalf("raw: %v %v", c, err)
	}
	c, err := ForName(CodecLZB)
	if err != nil || c == nil || c.Name() != CodecLZB {
		t.Fatalf("lzb: %v %v", c, err)
	}
	if _, err := ForName("zstd"); err == nil {
		t.Fatal("unknown codec accepted")
	}
}

func TestNegotiateCodec(t *testing.T) {
	cases := []struct {
		req    string
		accept []string
		want   string
	}{
		{"", nil, CodecRaw},
		{CodecRaw, nil, CodecRaw},
		{CodecLZB, nil, CodecLZB},
		{CodecLZB, []string{CodecRaw}, CodecRaw},
		{CodecLZB, []string{CodecRaw, CodecLZB}, CodecLZB},
		{"zstd", nil, CodecRaw},
	}
	for _, c := range cases {
		got, codec := NegotiateCodec(c.req, c.accept)
		if got != c.want {
			t.Errorf("NegotiateCodec(%q, %v) = %q, want %q", c.req, c.accept, got, c.want)
		}
		if want, _ := ForName(c.want); codec != want {
			t.Errorf("NegotiateCodec(%q, %v) codec = %v, want ForName(%q)", c.req, c.accept, codec, c.want)
		}
	}
}

func TestParseCodecList(t *testing.T) {
	got, err := ParseCodecList(" raw, lzb ")
	if err != nil || len(got) != 2 || got[0] != CodecRaw || got[1] != CodecLZB {
		t.Fatalf("got %v, %v", got, err)
	}
	if got, err := ParseCodecList(""); err != nil || got != nil {
		t.Fatalf("empty list: %v, %v", got, err)
	}
	if _, err := ParseCodecList("raw,gzip"); err == nil {
		t.Fatal("unknown codec accepted")
	}
}
