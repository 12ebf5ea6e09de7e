package router

import (
	"bufio"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"setdiscovery"
	"setdiscovery/internal/server"
)

// parseLabels parses the label set of one exposition sample line per the
// text format: name{key="value",...} value, where a value escapes only
// backslash, double quote and line feed.
func parseLabels(line string) (map[string]string, error) {
	open := strings.IndexByte(line, '{')
	if open < 0 {
		return nil, nil
	}
	labels := map[string]string{}
	rest := line[open+1:]
	for {
		eq := strings.Index(rest, `="`)
		if eq < 0 {
			return nil, fmt.Errorf("no label value in %q", line)
		}
		key := rest[:eq]
		rest = rest[eq+2:]
		var val strings.Builder
		for {
			if rest == "" {
				return nil, fmt.Errorf("unterminated label value in %q", line)
			}
			c := rest[0]
			rest = rest[1:]
			if c == '"' {
				break
			}
			if c == '\\' {
				if rest == "" {
					return nil, fmt.Errorf("dangling escape in %q", line)
				}
				switch rest[0] {
				case '\\', '"':
					c = rest[0]
				case 'n':
					c = '\n'
				default:
					return nil, fmt.Errorf("invalid escape \\%c in %q", rest[0], line)
				}
				rest = rest[1:]
			}
			val.WriteByte(c)
		}
		labels[key] = val.String()
		switch {
		case strings.HasPrefix(rest, ","):
			rest = rest[1:]
		case strings.HasPrefix(rest, "} "):
			return labels, nil
		default:
			return nil, fmt.Errorf("malformed label set in %q", line)
		}
	}
}

// scrapeLabel returns every value the named label takes on the /v1/metrics
// page at base, failing on lines that do not parse.
func scrapeLabel(t *testing.T, base, label string) map[string]bool {
	t.Helper()
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	values := map[string]bool{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		labels, err := parseLabels(line)
		if err != nil {
			t.Fatal(err)
		}
		if v, ok := labels[label]; ok {
			values[v] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return values
}

// TestMetricsLabelEscaping scrapes an engine and a router whose collection
// and backend names hold a double quote, a backslash and a newline, and
// parses the original names back out of both expositions.
func TestMetricsLabelEscaping(t *testing.T) {
	const name = "a\"b\\c\nd"
	c, err := setdiscovery.NewCollection(paperSets())
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New()
	if err := srv.Register(name, c); err != nil {
		t.Fatal(err)
	}
	engine := httptest.NewServer(srv.Handler())
	t.Cleanup(engine.Close)
	rt := New(WithLogf(t.Logf))
	if err := rt.AddBackend(name, engine.URL); err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	rt.metrics.observeRound(name, 1)

	if got := scrapeLabel(t, engine.URL, "collection"); len(got) != 1 || !got[name] {
		t.Errorf("engine exports collections %q, want only %q", keys(got), name)
	}
	if got := scrapeLabel(t, front.URL, "backend"); len(got) != 1 || !got[name] {
		t.Errorf("router exports backends %q, want only %q", keys(got), name)
	}
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
