module ccnvm/benchmark

go 1.22

require ccnvm v0.0.0

replace ccnvm => ../
