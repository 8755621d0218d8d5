package memrouter

import (
	"regexp"
	"strings"
	"testing"
)

// metricNameRe is the Prometheus metric-name shape both exporters keep.
var metricNameRe = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// TestMetricsExposition checks the /metrics text a memctld shard serves
// and the text a three-shard router serves, which re-emits every
// shard's memctld_* families. In both, every family is typed once as a
// counter or a gauge, names are lower_snake_case, counters and only
// counters end in _total, and each family's samples form one group
// directly under its TYPE line. Dashboards and the tournament harness
// join series by these names.
func TestMetricsExposition(t *testing.T) {
	cfg := shardConfig(256, 5)
	cfg.Banks = 4
	s, _, _ := startShard(t, cfg)
	r, _, _ := threeShardRouter(t, 1, 1)
	shard := checkExposition(t, "memctld", s.MetricsText())

	// A shard whose scrape failed leaves an empty text; the next shard
	// then supplies the family headers.
	var partial strings.Builder
	mergeShardMetrics(&partial, []string{"", s.MetricsText(), s.MetricsText()})
	for where, text := range map[string]string{"router": r.MetricsText(), "merge without shard 0": partial.String()} {
		typed := checkExposition(t, where, text)
		for name := range shard {
			if !typed[name] {
				t.Errorf("%s: family %s is missing from the shard passthrough", where, name)
			}
		}
	}
}

// checkExposition checks one /metrics text and returns the names it
// types.
func checkExposition(t *testing.T, where, text string) map[string]bool {
	t.Helper()
	typed := map[string]bool{}
	family := ""
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		switch {
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Errorf("%s: malformed TYPE line %q", where, line)
				continue
			}
			name, kind := fields[2], fields[3]
			if kind != "counter" && kind != "gauge" {
				t.Errorf("%s: %s has kind %q, want counter or gauge", where, name, kind)
			}
			if !metricNameRe.MatchString(name) {
				t.Errorf("%s: name %q does not match %s", where, name, metricNameRe)
			}
			if strings.HasSuffix(name, "_total") != (kind == "counter") {
				t.Errorf("%s: %s %s: counters, and only counters, end in _total", where, kind, name)
			}
			if typed[name] {
				t.Errorf("%s: %s is typed twice", where, name)
			}
			typed[name] = true
			family = name
		case strings.HasPrefix(line, "#"):
			// HELP text.
		default:
			name, _, _ := strings.Cut(line, " ")
			name, _, _ = strings.Cut(name, "{")
			if name != family {
				t.Errorf("%s: sample %q is not in its family's group (it follows TYPE %s)", where, line, family)
			}
		}
	}
	return typed
}
