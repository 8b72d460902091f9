package telemetry

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// NewLogger builds the daemon-standard structured logger: text or JSON
// records to w at the given level, with component (and shard, when
// non-empty) attached to every record. The format strings accepted are
// "text" and "json"; anything else falls back to text.
func NewLogger(w io.Writer, level slog.Level, format, component, shard string) *slog.Logger {
	opts := &slog.HandlerOptions{Level: level}
	var h slog.Handler
	if strings.EqualFold(format, "json") {
		h = slog.NewJSONHandler(w, opts)
	} else {
		h = slog.NewTextHandler(w, opts)
	}
	l := slog.New(h)
	if component != "" {
		l = l.With("component", component)
	}
	if shard != "" {
		l = l.With("shard", shard)
	}
	return l
}

// ParseLevel maps the CLI-flag level names onto slog levels (defaulting to
// info on unknown input).
func ParseLevel(s string) slog.Level {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug
	case "warn", "warning":
		return slog.LevelWarn
	case "error":
		return slog.LevelError
	default:
		return slog.LevelInfo
	}
}

// DiscardLogger returns a logger that drops everything — the default for
// library configs whose caller wired no logging.
func DiscardLogger() *slog.Logger {
	return slog.New(discardHandler{})
}

type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }

// LogfLogger adapts a printf-style sink into a structured logger: records
// render as "msg key=value ...". Tests hand the Logger config fields their
// t.Logf through it, coflowload its progress sink.
func LogfLogger(logf func(format string, args ...any)) *slog.Logger {
	if logf == nil {
		return DiscardLogger()
	}
	return slog.New(&logfHandler{logf: logf})
}

type logfHandler struct {
	logf  func(format string, args ...any)
	attrs []slog.Attr
}

func (h *logfHandler) Enabled(_ context.Context, level slog.Level) bool {
	// Printf sinks have no level filtering of their own; keep debug chatter
	// (per-retry, per-probe lines) out of them.
	return level >= slog.LevelInfo
}

func (h *logfHandler) Handle(_ context.Context, r slog.Record) error {
	var b strings.Builder
	b.WriteString(r.Message)
	appendAttr := func(a slog.Attr) bool {
		fmt.Fprintf(&b, " %s=%v", a.Key, a.Value.Any())
		return true
	}
	for _, a := range h.attrs {
		appendAttr(a)
	}
	r.Attrs(appendAttr)
	h.logf("%s", b.String())
	return nil
}

func (h *logfHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return &logfHandler{logf: h.logf, attrs: append(append([]slog.Attr{}, h.attrs...), attrs...)}
}

func (h *logfHandler) WithGroup(string) slog.Handler { return h }
