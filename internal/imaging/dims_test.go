package imaging

import (
	"errors"
	"testing"
)

// DecodeDims must read the geometry of every stored format the trainer's
// profiling epoch can meet: SJPG streams, full SJPR containers and SJPR
// prefixes, and reject damaged input with ErrCorrupt or ErrTruncated.
func TestDecodeDimsFormats(t *testing.T) {
	im, err := Synthesize(SynthParams{W: 37, H: 29, Detail: 0.4, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	sjpg, err := EncodeDefault(im)
	if err != nil {
		t.Fatal(err)
	}
	sjpr, err := EncodeProgressive(im, 80, 3)
	if err != nil {
		t.Fatal(err)
	}
	prefix, err := SlicePrefix(sjpr, 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		data    []byte
		wantErr error
	}{
		{"SJPG", sjpg, nil},
		{"SJPR full container", sjpr, nil},
		{"SJPR 1-scan prefix", prefix, nil},
		{"empty", nil, ErrCorrupt},
		{"garbage", []byte("not an image at all"), ErrCorrupt},
		{"SJPG short header", sjpg[:headerSize-1], ErrCorrupt},
		{"SJPR short header", sjpr[:sjprFixedHeader-1], ErrCorrupt},
		{"SJPR cut mid-scan", prefix[:len(prefix)-1], ErrTruncated},
	}
	for _, c := range cases {
		w, h, err := DecodeDims(c.data)
		if c.wantErr != nil {
			if !errors.Is(err, c.wantErr) {
				t.Errorf("%s: DecodeDims = %d,%d,%v, want %v", c.name, w, h, err, c.wantErr)
			}
			continue
		}
		if err != nil || w != 37 || h != 29 {
			t.Errorf("%s: DecodeDims = %d,%d,%v, want 37,29", c.name, w, h, err)
		}
	}
}
