package lint_test

import (
	"testing"

	"ccsvm/internal/lint"
	"ccsvm/internal/lint/linttest"
)

// Each analyzer runs over golden fixture packages under testdata/src with at
// least one true positive and one annotated-clean negative, per the suite's
// acceptance bar.

func TestDeterminism(t *testing.T) {
	linttest.Run(t, ".", lint.Determinism, "det", "detclean", "notdet")
}

func TestDirectives(t *testing.T) {
	linttest.Run(t, ".", lint.Directives, "dirbad", "dirclean")
}
