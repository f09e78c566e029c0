package shard

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"vexsmt/pkg/vexsmt"
)

// ndLine decodes one NDJSON line of a vexsmtd /v1/results stream, which
// is either a cell (mix/technique/... fields) or the terminal status
// object. The outer Status/ErrMsg fields shadow the embedded CellResult's
// "error" tag (shallower depth wins in encoding/json), so one decode
// handles both shapes; DecodeResultStream copies ErrMsg back into the
// cell for cell lines.
type ndLine struct {
	vexsmt.CellResult
	Status string `json:"status"`
	ErrMsg string `json:"error"`
}

// maxStreamLine caps one NDJSON line. A cell line is about 1 KiB; the cap
// only stops a runaway peer from growing the buffer without bound.
const maxStreamLine = 1 << 20

// newLineScanner returns a line scanner whose buffer starts small and
// grows on demand up to maxStreamLine, so a one-cell stream never pays
// for a large up-front buffer.
func newLineScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxStreamLine)
	return sc
}

// nextLine returns the next non-blank line, or false at the end of the
// stream or on a read error (sc.Err tells which).
func nextLine(sc *bufio.Scanner) ([]byte, bool) {
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			return line, true
		}
	}
	return nil, false
}

// DecodeResultStream reads a vexsmtd NDJSON results stream: zero or more
// cell lines followed by one terminal status object. Every cell line is
// passed to onCell (with CellResult.Err populated from the line's error
// field); reading stops at the terminal line, whose status and error are
// returned. A malformed line is an error — the stream is a machine
// protocol, and resynchronizing on garbage would silently drop cells. A
// stream that ends before a terminal line returns status "" and no
// error; the caller decides whether that means a dead peer.
//
// This is the single NDJSON decoder of the distributed layer — the HTTP
// cell backend and any other /v1/results consumer share it, so the
// protocol is parsed in exactly one place.
func DecodeResultStream(r io.Reader, onCell func(vexsmt.CellResult)) (status, errMsg string, err error) {
	return decodeResults(newLineScanner(r), onCell)
}

// decodeAck reads the acknowledgement line that opens a one-shot
// submission stream (POST /v1/plans?stream=1) into v.
func decodeAck(sc *bufio.Scanner, v any) error {
	line, ok := nextLine(sc)
	if !ok {
		if err := sc.Err(); err != nil {
			return fmt.Errorf("stream: %w", err)
		}
		return errors.New("stream ended before its acknowledgement line")
	}
	if err := json.Unmarshal(line, v); err != nil {
		return fmt.Errorf("bad acknowledgement line %q: %w", line, err)
	}
	return nil
}

// decodeResults is DecodeResultStream over a scanner that may already
// have consumed a leading acknowledgement line.
func decodeResults(sc *bufio.Scanner, onCell func(vexsmt.CellResult)) (status, errMsg string, err error) {
	for {
		line, ok := nextLine(sc)
		if !ok {
			break
		}
		var l ndLine
		if err := json.Unmarshal(line, &l); err != nil {
			// No package prefix: callers wrap with their own ("shard:
			// <backend>: ...") and a doubled prefix reads badly.
			return "", "", fmt.Errorf("bad stream line %q: %w", line, err)
		}
		if l.Status != "" {
			return l.Status, l.ErrMsg, nil
		}
		cell := l.CellResult
		cell.Err = l.ErrMsg
		if onCell != nil {
			onCell(cell)
		}
	}
	if err := sc.Err(); err != nil {
		return "", "", fmt.Errorf("stream: %w", err)
	}
	return "", "", nil
}
