let ceil_div a b = (a + b - 1) / b
let round_up a m = ceil_div a m * m
