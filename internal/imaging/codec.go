package imaging

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"image/color"
	"io"
	"sync"

	"repro/internal/bufpool"
)

// SJPG is a real lossy image codec standing in for JPEG. The encoder
// converts RGB to YCbCr, 2x2-subsamples the chroma planes, quantizes each
// plane by a quality-derived shift, delta-predicts rows, and DEFLATEs the
// residuals. Like JPEG, its output size depends strongly on image content:
// smooth images compress an order of magnitude better than noisy ones.

const (
	sjpgMagic   = "SJPG"
	sjpgVersion = 1
	headerSize  = 4 + 1 + 1 + 4 + 4 // magic, version, quality, W, H
)

// Codec errors.
var (
	ErrCorrupt     = errors.New("imaging: corrupt SJPG stream")
	ErrBadQuality  = errors.New("imaging: quality must be in [1, 100]")
	ErrUnsupported = errors.New("imaging: unsupported SJPG version")
)

// DefaultQuality is used by EncodeDefault and by the dataset generator.
const DefaultQuality = 80

func shifts(quality int) (yShift, cShift uint) {
	switch {
	case quality >= 90:
		return 0, 1
	case quality >= 70:
		return 1, 2
	case quality >= 50:
		return 2, 3
	default:
		return 3, 4
	}
}

// Scratch pools for the codec hot path: the DEFLATE coders carry large
// internal state (tens of KB each) and are reset between uses; the plane and
// accumulator scratch comes from the bufpool arena.
var (
	flateWriterPool = sync.Pool{New: func() any {
		zw, err := flate.NewWriter(io.Discard, flate.DefaultCompression)
		if err != nil {
			panic(err) // DefaultCompression is always a valid level
		}
		return zw
	}}
	flateReaderPool = sync.Pool{New: func() any {
		return &pooledReader{br: bytes.NewReader(nil), zr: flate.NewReader(bytes.NewReader(nil))}
	}}
	encBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}
)

// pooledReader bundles a reusable bytes.Reader with a resettable DEFLATE
// decompressor so Decode performs no per-call codec-state allocation.
type pooledReader struct {
	br *bytes.Reader
	zr io.ReadCloser
}

func (p *pooledReader) reset(data []byte) {
	p.br.Reset(data)
	// flate.NewReader's concrete type always implements Resetter.
	p.zr.(flate.Resetter).Reset(p.br, nil)
}

// release drops the reference to the caller's data (so pooling the reader
// cannot pin a decoded stream in memory) and returns it to the pool.
func (p *pooledReader) release() {
	p.br.Reset(nil)
	flateReaderPool.Put(p)
}

// Encode compresses im at the given quality (1..100) and returns the SJPG
// byte stream. The returned slice is freshly allocated and owned by the
// caller; all codec scratch is pooled internally.
func Encode(im *Image, quality int) ([]byte, error) {
	if quality < 1 || quality > 100 {
		return nil, fmt.Errorf("%w: %d", ErrBadQuality, quality)
	}
	yShift, cShift := shifts(quality)

	cw, ch := (im.W+1)/2, (im.H+1)/2
	planes := bufpool.GetBytes(im.W*im.H + 2*cw*ch)
	defer bufpool.PutBytes(planes)
	yPlane := planes[:im.W*im.H]
	cbPlane := planes[im.W*im.H : im.W*im.H+cw*ch]
	crPlane := planes[im.W*im.H+cw*ch:]
	fillPlanes(im, yShift, cShift, yPlane, cbPlane, crPlane)

	deltaEncode(yPlane, im.W)
	deltaEncode(cbPlane, cw)
	deltaEncode(crPlane, cw)

	buf := encBufPool.Get().(*bytes.Buffer)
	defer encBufPool.Put(buf)
	buf.Reset()
	buf.WriteString(sjpgMagic)
	buf.WriteByte(sjpgVersion)
	buf.WriteByte(uint8(quality))
	var dims [8]byte
	binary.BigEndian.PutUint32(dims[0:4], uint32(im.W))
	binary.BigEndian.PutUint32(dims[4:8], uint32(im.H))
	buf.Write(dims[:])

	zw := flateWriterPool.Get().(*flate.Writer)
	defer flateWriterPool.Put(zw)
	zw.Reset(buf)
	if _, err := zw.Write(planes); err != nil {
		return nil, fmt.Errorf("imaging: compress planes: %w", err)
	}
	if err := zw.Close(); err != nil {
		return nil, fmt.Errorf("imaging: finish compress: %w", err)
	}
	return append([]byte(nil), buf.Bytes()...), nil
}

// fillPlanes computes the SJPG-quantized Y/Cb/Cr planes for im: luma per
// pixel shifted by yShift, chroma 2x2-box-averaged then shifted by cShift.
// The plane slices must be sized W*H, cw*ch, cw*ch respectively.
func fillPlanes(im *Image, yShift, cShift uint, yPlane, cbPlane, crPlane []uint8) {
	cw, ch := (im.W+1)/2, (im.H+1)/2
	sums := bufpool.GetUint32(3 * cw * ch)
	defer bufpool.PutUint32(sums)
	cbSum := sums[:cw*ch]
	crSum := sums[cw*ch : 2*cw*ch]
	cnt := sums[2*cw*ch:]
	for i := range sums {
		sums[i] = 0
	}

	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			r, g, b := im.At(x, y)
			yy, cb, cr := color.RGBToYCbCr(r, g, b)
			yPlane[y*im.W+x] = yy >> yShift
			ci := (y/2)*cw + x/2
			cbSum[ci] += uint32(cb)
			crSum[ci] += uint32(cr)
			cnt[ci]++
		}
	}
	for i := range cbPlane {
		n := cnt[i]
		if n == 0 {
			continue
		}
		cbPlane[i] = uint8(cbSum[i]/n) >> cShift
		crPlane[i] = uint8(crSum[i]/n) >> cShift
	}
}

// EncodeDefault is Encode at DefaultQuality.
func EncodeDefault(im *Image) ([]byte, error) { return Encode(im, DefaultQuality) }

// Decode reconstructs an image from an SJPG stream. The returned image is
// pool-backed: the caller owns it and should call Release when done to keep
// the decode path allocation-free at steady state (skipping Release is safe,
// merely slower).
func Decode(data []byte) (*Image, error) {
	w, h, quality, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	yShift, cShift := shifts(quality)

	cw, chh := (w+1)/2, (h+1)/2
	total := w*h + 2*cw*chh
	planes := bufpool.GetBytes(total)
	defer bufpool.PutBytes(planes)
	pr := flateReaderPool.Get().(*pooledReader)
	defer pr.release()
	pr.reset(data[headerSize:])
	zr := pr.zr
	if _, err := io.ReadFull(zr, planes); err != nil {
		return nil, fmt.Errorf("%w: decompress: %v", ErrCorrupt, err)
	}
	// A well-formed stream has no trailing plane data. A reader may legally
	// return (0, nil) before signalling EOF, so a single Read is not a
	// reliable probe; io.ReadFull retries until it gets a byte or an error.
	var trail [1]byte
	switch _, err := io.ReadFull(zr, trail[:]); err {
	case io.EOF:
		// Clean end of stream.
	case nil:
		return nil, fmt.Errorf("%w: trailing data", ErrCorrupt)
	default:
		return nil, fmt.Errorf("%w: trailing garbage: %v", ErrCorrupt, err)
	}
	if err := zr.Close(); err != nil {
		return nil, fmt.Errorf("%w: close: %v", ErrCorrupt, err)
	}

	yPlane := planes[:w*h]
	cbPlane := planes[w*h : w*h+cw*chh]
	crPlane := planes[w*h+cw*chh:]
	deltaDecode(yPlane, w)
	deltaDecode(cbPlane, cw)
	deltaDecode(crPlane, cw)

	return planesToImage(w, h, yShift, cShift, yPlane, cbPlane, crPlane)
}

// planesToImage dequantizes Y/Cb/Cr planes (already delta-decoded) back into
// a pooled RGB image. The shifts are the effective quantization at decode
// time — for a progressive prefix they include the undelivered refinement
// depth on top of the quality-derived shift.
func planesToImage(w, h int, yShift, cShift uint, yPlane, cbPlane, crPlane []uint8) (*Image, error) {
	cw := (w + 1) / 2
	im, err := NewPooled(w, h)
	if err != nil {
		return nil, err
	}
	yHalf := uint8(0)
	if yShift > 0 {
		yHalf = 1 << (yShift - 1)
	}
	cHalf := uint8(0)
	if cShift > 0 {
		cHalf = 1 << (cShift - 1)
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			yy := dequant(yPlane[y*w+x], yShift, yHalf)
			ci := (y/2)*cw + x/2
			cb := dequant(cbPlane[ci], cShift, cHalf)
			cr := dequant(crPlane[ci], cShift, cHalf)
			r, g, b := color.YCbCrToRGB(yy, cb, cr)
			im.Set(x, y, r, g, b)
		}
	}
	return im, nil
}

func dequant(v uint8, shift uint, half uint8) uint8 {
	out := uint16(v)<<shift + uint16(half)
	if out > 255 {
		out = 255
	}
	return uint8(out)
}

// DecodeDims returns the pixel dimensions recorded in the header of an SJPG
// stream or of an SJPR container (or any well-formed container prefix)
// without decompressing the payload.
func DecodeDims(data []byte) (w, h int, err error) {
	if IsProgressive(data) {
		w, h, _, _, _, err = ProgressiveInfo(data)
		return w, h, err
	}
	w, h, _, err = parseHeader(data)
	return w, h, err
}

func parseHeader(data []byte) (w, h, quality int, err error) {
	if len(data) < headerSize || string(data[:4]) != sjpgMagic {
		return 0, 0, 0, ErrCorrupt
	}
	if data[4] != sjpgVersion {
		return 0, 0, 0, fmt.Errorf("%w: %d", ErrUnsupported, data[4])
	}
	quality = int(data[5])
	if quality < 1 || quality > 100 {
		return 0, 0, 0, fmt.Errorf("%w: quality %d", ErrCorrupt, quality)
	}
	w = int(binary.BigEndian.Uint32(data[6:10]))
	h = int(binary.BigEndian.Uint32(data[10:14]))
	const maxDim = 1 << 16
	if w <= 0 || h <= 0 || w > maxDim || h > maxDim {
		return 0, 0, 0, fmt.Errorf("%w: dims %dx%d", ErrCorrupt, w, h)
	}
	return w, h, quality, nil
}

// deltaEncode replaces each value with its difference from the previous
// value in the row (first column predicts from the row above), tightening
// the residual distribution for DEFLATE.
func deltaEncode(plane []uint8, stride int) {
	if stride <= 0 {
		return
	}
	for i := len(plane) - 1; i > 0; i-- {
		var pred uint8
		if i%stride != 0 {
			pred = plane[i-1]
		} else {
			pred = plane[i-stride]
		}
		plane[i] -= pred
	}
}

// deltaDecode reverses deltaEncode in place.
func deltaDecode(plane []uint8, stride int) {
	if stride <= 0 {
		return
	}
	for i := 1; i < len(plane); i++ {
		var pred uint8
		if i%stride != 0 {
			pred = plane[i-1]
		} else {
			pred = plane[i-stride]
		}
		plane[i] += pred
	}
}
