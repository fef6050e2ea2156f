module gossipstream/benchmark

go 1.24

require gossipstream v0.0.0

replace gossipstream => ../
