package deadfix

import "testing"

func TestRootTestOnly(t *testing.T) { _ = RootTestOnly() }
