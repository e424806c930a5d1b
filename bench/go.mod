// The benchmark is a module of its own so that it builds, vets and tests
// apart from the code it measures; the replace directive lets it import
// parsim and parsim/internal/... from the checkout it sits in.
module parsim/bench

go 1.22

require parsim v0.0.0

replace parsim => ../
