package obs

import (
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"
)

// Level is a log severity.
type Level int8

// Levels, in increasing severity.
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String returns the lowercase level name used in the JSON output.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	}
	return fmt.Sprintf("level(%d)", int8(l))
}

// A Logger writes line-delimited JSON records to a sink. Records carry
// a timestamp, level, message, and alternating key/value fields in the
// order given — field order is the call-site order, never a map order.
// All methods are safe for concurrent use, and every method on a nil
// *Logger is a no-op, so instrumented code needs no guards.
type Logger struct {
	mu      sync.Mutex
	w       io.Writer
	min     Level
	now     func() time.Time // injectable for tests; defaults to time.Now
	buf     []byte
	dropped uint64
}

// NewLogger returns a logger writing records at or above min to w.
func NewLogger(w io.Writer, min Level) *Logger {
	return &Logger{w: w, min: min, now: time.Now}
}

// Dropped counts records lost to sink write errors: the logger never
// blocks or fails its caller, but it does not hide the loss.
func (l *Logger) Dropped() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// Debug logs at debug level; kv is alternating keys and values.
func (l *Logger) Debug(msg string, kv ...any) { l.log(LevelDebug, msg, kv) }

// Info logs at info level.
func (l *Logger) Info(msg string, kv ...any) { l.log(LevelInfo, msg, kv) }

// Warn logs at warn level.
func (l *Logger) Warn(msg string, kv ...any) { l.log(LevelWarn, msg, kv) }

// Error logs at error level.
func (l *Logger) Error(msg string, kv ...any) { l.log(LevelError, msg, kv) }

func (l *Logger) log(lv Level, msg string, kv []any) {
	if l == nil || lv < l.min {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	b := l.buf[:0]
	b = append(b, `{"ts":`...)
	b = strconv.AppendQuote(b, l.now().UTC().Format(time.RFC3339Nano))
	b = append(b, `,"level":`...)
	b = strconv.AppendQuote(b, lv.String())
	b = append(b, `,"msg":`...)
	b = strconv.AppendQuote(b, msg)
	for i := 0; i+1 < len(kv); i += 2 {
		b = append(b, ',')
		key, ok := kv[i].(string)
		if !ok {
			key = fmt.Sprint(kv[i])
		}
		b = strconv.AppendQuote(b, key)
		b = append(b, ':')
		b = appendJSONValue(b, kv[i+1])
	}
	if len(kv)%2 == 1 {
		// A dangling key still surfaces rather than vanishing.
		b = append(b, `,"!missing-value":`...)
		b = appendJSONValue(b, kv[len(kv)-1])
	}
	b = append(b, '}', '\n')
	l.buf = b
	if _, err := l.w.Write(b); err != nil {
		l.dropped++
	}
}

// appendJSONValue renders one field value. Known scalar types get their
// natural JSON form; everything else is stringified and quoted.
func appendJSONValue(b []byte, v any) []byte {
	switch v := v.(type) {
	case nil:
		return append(b, "null"...)
	case bool:
		return strconv.AppendBool(b, v)
	case string:
		return strconv.AppendQuote(b, v)
	case int:
		return strconv.AppendInt(b, int64(v), 10)
	case int32:
		return strconv.AppendInt(b, int64(v), 10)
	case int64:
		return strconv.AppendInt(b, v, 10)
	case uint:
		return strconv.AppendUint(b, uint64(v), 10)
	case uint32:
		return strconv.AppendUint(b, uint64(v), 10)
	case uint64:
		return strconv.AppendUint(b, v, 10)
	case float32:
		return appendJSONFloat(b, float64(v))
	case float64:
		return appendJSONFloat(b, v)
	case time.Duration:
		return strconv.AppendQuote(b, v.String())
	case time.Time:
		return strconv.AppendQuote(b, v.UTC().Format(time.RFC3339Nano))
	case error:
		return strconv.AppendQuote(b, v.Error())
	case fmt.Stringer:
		return strconv.AppendQuote(b, v.String())
	}
	return strconv.AppendQuote(b, fmt.Sprintf("%v", v))
}

// appendJSONFloat renders finite floats bare and non-finite ones as
// quoted strings, since JSON has no NaN/Inf literals.
func appendJSONFloat(b []byte, v float64) []byte {
	if v != v || v > 1.7976931348623157e308 || v < -1.7976931348623157e308 {
		return strconv.AppendQuote(b, strconv.FormatFloat(v, 'g', -1, 64))
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}
