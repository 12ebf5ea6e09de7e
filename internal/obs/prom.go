// Package obs holds the observability primitives shared by the engine and
// the router. Today that is the Prometheus text writer behind both
// /v1/metrics endpoints.
package obs

import (
	"fmt"
	"net/http"
	"strings"
)

// Writer accumulates one Prometheus text-format exposition body: the subset
// of text/plain; version=0.0.4 every Prometheus-compatible scraper accepts
// (# HELP, # TYPE, and one sample per line), written by hand so the
// binaries stay dependency-free. Families must be emitted contiguously
// (Family once, then every Sample).
type Writer struct {
	b strings.Builder
}

// labelEscaper escapes a label value per the exposition format: backslash,
// double quote and line feed are the only characters it escapes.
var labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)

// Family starts a metric family.
func (w *Writer) Family(name, help, typ string) {
	fmt.Fprintf(&w.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Sample writes one sample. labels alternate label names and raw values;
// the values are escaped here.
func (w *Writer) Sample(name string, v float64, labels ...string) {
	w.b.WriteString(name)
	for i := 0; i+1 < len(labels); i += 2 {
		if i == 0 {
			w.b.WriteByte('{')
		} else {
			w.b.WriteByte(',')
		}
		w.b.WriteString(labels[i])
		w.b.WriteString(`="`)
		w.b.WriteString(labelEscaper.Replace(labels[i+1]))
		w.b.WriteByte('"')
	}
	if len(labels) > 1 {
		w.b.WriteByte('}')
	}
	fmt.Fprintf(&w.b, " %g\n", v)
}

// Serve writes the accumulated body as the response.
func (w *Writer) Serve(rw http.ResponseWriter) {
	rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	rw.WriteHeader(http.StatusOK)
	rw.Write([]byte(w.b.String()))
}

// Bool renders a boolean gauge value.
func Bool(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
