package obs

import "testing"

func TestRegistered(t *testing.T) {
	if std.names[cTest] != MetricTestRead {
		t.Fatal("test counter not registered")
	}
}
