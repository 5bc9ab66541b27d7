package imaging

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"image/color"
	"io"
	"runtime"

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

// Idle codec state waits in buffered channels (Effective Go's "leaky
// buffer"), not in sync.Pools. A Pool empties at every other GC, and a value
// Put on one P sits in that P's private slot, where a Get on another P does
// not look; either way a steady-state Encode or Decode would sometimes
// rebuild its DEFLATE state, and allocs/op would depend on GC timing and
// goroutine migration. A channel keeps what it holds and serves every P.
var (
	encoders = make(chan *encoder, 2*runtime.NumCPU())
	decoders = make(chan *pooledReader, 2*runtime.NumCPU())
)

// encoder is the encoders' reusable codec state: the DEFLATE writer (about
// 1 MB of internal tables), the output buffer, and the plane scratch, which
// grows to the largest image encoded so far.
type encoder struct {
	zw     *flate.Writer
	buf    bytes.Buffer
	planes []byte
}

func getEncoder() *encoder {
	select {
	case e := <-encoders:
		return e
	default:
	}
	zw, err := flate.NewWriter(io.Discard, flate.DefaultCompression)
	if err != nil {
		panic(err) // DefaultCompression is always a valid level
	}
	return &encoder{zw: zw}
}

func putEncoder(e *encoder) {
	select {
	case encoders <- e:
	default: // enough idle encoders; let the GC have this one
	}
}

// scratch returns the encoder's plane scratch resized to n bytes.
func (e *encoder) scratch(n int) []byte {
	if cap(e.planes) < n {
		e.planes = make([]byte, n)
	}
	return e.planes[:n]
}

// pooledReader bundles a reusable bytes.Reader with a resettable DEFLATE
// decompressor so Decode performs no per-call codec-state allocation.
type pooledReader struct {
	br *bytes.Reader
	zr io.ReadCloser
}

// getReader returns an idle decompressor reset to read data.
func getReader(data []byte) *pooledReader {
	var p *pooledReader
	select {
	case p = <-decoders:
	default:
		p = &pooledReader{br: bytes.NewReader(nil), zr: flate.NewReader(bytes.NewReader(nil))}
	}
	p.br.Reset(data)
	// flate.NewReader's concrete type always implements Resetter.
	p.zr.(flate.Resetter).Reset(p.br, nil)
	return p
}

// release drops the reference to the caller's data (so keeping the reader
// cannot pin a decoded stream in memory) and returns it for reuse.
func (p *pooledReader) release() {
	p.br.Reset(nil)
	select {
	case decoders <- p:
	default:
	}
}

// Encode compresses im at the given quality (1..100) and returns the SJPG
// byte stream. The returned slice is freshly allocated and owned by the
// caller; all codec scratch is pooled internally.
func Encode(im *Image, quality int) ([]byte, error) {
	if quality < 1 || quality > 100 {
		return nil, fmt.Errorf("%w: %d", ErrBadQuality, quality)
	}
	yShift, cShift := shifts(quality)

	e := getEncoder()
	defer putEncoder(e)
	cw, ch := (im.W+1)/2, (im.H+1)/2
	planes := e.scratch(im.W*im.H + 2*cw*ch)
	yPlane := planes[:im.W*im.H]
	cbPlane := planes[im.W*im.H : im.W*im.H+cw*ch]
	crPlane := planes[im.W*im.H+cw*ch:]
	fillPlanes(im, yShift, cShift, yPlane, cbPlane, crPlane)

	deltaEncode(yPlane, im.W)
	deltaEncode(cbPlane, cw)
	deltaEncode(crPlane, cw)

	buf := &e.buf
	buf.Reset()
	buf.WriteString(sjpgMagic)
	buf.WriteByte(sjpgVersion)
	buf.WriteByte(uint8(quality))
	var dims [8]byte
	binary.BigEndian.PutUint32(dims[0:4], uint32(im.W))
	binary.BigEndian.PutUint32(dims[4:8], uint32(im.H))
	buf.Write(dims[:])

	zw := e.zw
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
// It walks the image one chroma cell at a time, so each pixel is converted
// once and the box sums stay in registers. The plane slices must be sized
// W*H, cw*ch, cw*ch respectively.
func fillPlanes(im *Image, yShift, cShift uint, yPlane, cbPlane, crPlane []uint8) {
	cw, ch := (im.W+1)/2, (im.H+1)/2
	for cy := 0; cy < ch; cy++ {
		for cx := 0; cx < cw; cx++ {
			var cbSum, crSum, n uint32
			for y := 2 * cy; y < min(2*cy+2, im.H); y++ {
				for x := 2 * cx; x < min(2*cx+2, im.W); x++ {
					r, g, b := im.At(x, y)
					yy, cb, cr := color.RGBToYCbCr(r, g, b)
					yPlane[y*im.W+x] = yy >> yShift
					cbSum += uint32(cb)
					crSum += uint32(cr)
					n++
				}
			}
			cbPlane[cy*cw+cx] = uint8(cbSum/n) >> cShift
			crPlane[cy*cw+cx] = uint8(crSum/n) >> cShift
		}
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
	pr := getReader(data[headerSize:])
	defer pr.release()
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
