// audit:allow(D1)
fn reasonless() {}

// audit:allow(Z9): no such rule exists
fn unknown_rule() {}

// audit:allow(P2): nothing on this or the next line can panic
fn unused() {}
