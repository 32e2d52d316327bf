// A guarded EXIT inside a divergent if: the odd threads of the first
// 64 leave early, every other thread stores 12 (inside the if) or 11
// to 0x30000 + 4 * gid. The EXIT must retire only the lanes whose
// predicate holds; the rest go on past it and rejoin the others.
.kernel guarded_exit regs=7
    S2R R0, SR_TID.X
    S2R R1, SR_CTAID.X
    S2R R2, SR_NTID.X
    IMAD R3, R1, R2, R0        // global thread id
    SHL R4, R3, 2
    IADD R4, R4, 0x30000
    MOV R5, 1
    ISETP.LT P0, R0, 64
    @!P0 BRA join              // threads 64.. skip the if
    ST.GLOBAL [R4], R5         // the leavers publish 1 first
    AND R6, R0, 1
    ISETP.EQ P1, R6, 1
    @P1 EXIT
    MOV R5, 2
join:
    IADD R5, R5, 10
    ST.GLOBAL [R4], R5
    EXIT
