module pnn/bench

go 1.22

require pnn v0.0.0

replace pnn => ../
