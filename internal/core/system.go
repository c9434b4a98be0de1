package core

import "fmt"

// System tracks the set of applications currently sharing the front-end,
// mirroring the paper's run-time usage: the slowdown factor "is always
// calculated at run-time [and] must be efficient to compute relative to
// how quickly applications enter and leave the system". It keeps only the
// contender set: adding an application is an append, removing one a
// slice delete, and each evaluation runs the slowdown kernel's O(p²) DP
// over the current set, so a System and a Predictor over the same tables
// give one multiset the same bits.
type System struct {
	contenders []Contender
	tables     DelayTables
	jGrid      []int // ascending CommOnComp columns, fixed at construction
}

// NewSystem returns an empty system using the given delay tables.
func NewSystem(tables DelayTables) (*System, error) {
	if err := tables.Validate(); err != nil {
		return nil, err
	}
	return &System{tables: tables, jGrid: tables.JGrid()}, nil
}

// Len reports the number of contenders currently in the system.
func (s *System) Len() int { return len(s.contenders) }

// Contenders returns a copy of the current contender set.
func (s *System) Contenders() []Contender {
	return append([]Contender(nil), s.contenders...)
}

// Add registers a new application. It rejects exactly the contenders the
// kernel rejects (Validate), so no evaluation can fail on a contender.
func (s *System) Add(c Contender) error {
	if err := c.Validate(); err != nil {
		return err
	}
	s.contenders = append(s.contenders, c)
	return nil
}

// Remove deletes the application at index.
func (s *System) Remove(index int) error {
	if index < 0 || index >= len(s.contenders) {
		return fmt.Errorf("core: remove index %d out of range [0,%d)", index, len(s.contenders))
	}
	s.contenders = append(s.contenders[:index], s.contenders[index+1:]...)
	return nil
}

// CommSlowdown evaluates the communication slowdown for the current set.
func (s *System) CommSlowdown() float64 {
	out, _ := commMixture(s.contenders, s.tables.CompOnComm, s.tables.CommOnComm) // Add admitted only valid contenders
	return out
}

// CompSlowdown evaluates the computation slowdown for the current set,
// using the j column nearest the maximum contender message size.
func (s *System) CompSlowdown() (float64, error) {
	return s.CompSlowdownWithJ(autoJ(s.contenders))
}

// CompSlowdownWithJ evaluates the computation slowdown with an explicit
// j column, resolved against the grid fixed at construction; it fails
// only when some contender communicates and no column is calibrated.
func (s *System) CompSlowdownWithJ(j int) (float64, error) {
	return compMixture(s.contenders, s.tables.CommOnComp, s.jGrid, j)
}
