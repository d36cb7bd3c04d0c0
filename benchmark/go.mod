module unizk/benchmark

go 1.22

require unizk v0.0.0

replace unizk => ../
