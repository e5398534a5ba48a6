package policy

import (
	"testing"
)

func BenchmarkLinearDifficulty(b *testing.B) {
	p := Policy2()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = p.Difficulty(float64(i % 11))
	}
}

func BenchmarkErrorRangeDifficulty(b *testing.B) {
	p, err := Policy3(WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Difficulty(float64(i % 11))
	}
}

func BenchmarkRulePolicyDifficulty(b *testing.B) {
	p, err := ParseRules(exampleProgram)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Difficulty(float64(i % 11))
	}
}

func BenchmarkParseRules(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseRules(exampleProgram); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse("policy3(epsilon=2.5,seed=1)"); err != nil {
			b.Fatal(err)
		}
	}
}
