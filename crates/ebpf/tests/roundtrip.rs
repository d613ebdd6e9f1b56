//! The emitter's exact output at one group, pinned by a golden snapshot: the
//! 4-worker Algorithm 2 program (two rungs), as `disasm` renders it — one
//! line per instruction, `ld_imm64` over two slots, jump targets as slots.
//! These are the bytes the kernel loads once their map indices are
//! relocated to fds (`kernel.rs` pins them byte for byte at four shapes).

use hermes_ebpf::disasm::disasm;
use hermes_ebpf::DispatchProgram;

#[test]
fn flat_program_disasm_snapshot() {
    let expected = "\
0: stxdw [r10-8], r1
1: ldxw r1, [r1+32]
2: lddw r2, map 2 value+0
4: stxdw [r2+16], r1
5: mov r6, r1
6: mov r2, 0
7: stxw [r10-12], r2
8: mov r2, r10
9: add r2, -12
10: lddw r1, map 0
12: call 1
13: jeq r0, 0 -> 15
14: ldxdw r0, [r0+0]
15: mov r7, r0
16: and r7, 15
17: mov r8, r7
18: mov r3, r8
19: rsh r3, 1
20: lddw r5, 0x5555555555555555
22: and r3, r5
23: sub r8, r3
24: mov r3, r8
25: rsh r3, 2
26: lddw r5, 0x3333333333333333
28: and r3, r5
29: lddw r5, 0x3333333333333333
31: and r8, r5
32: add r8, r3
33: mov r3, r8
34: rsh r3, 4
35: add r8, r3
36: lddw r5, 0xf0f0f0f0f0f0f0f
38: and r8, r5
39: lddw r5, 0x101010101010101
41: mul r8, r5
42: rsh r8, 56
43: jle r8, 1 -> 131
44: mov r1, r6
45: mov r2, r8
46: mov32 r0, r1
47: mov32 r2, r2
48: mul r0, r2
49: rsh r0, 32
50: mov r9, r0
51: add r9, 1
52: mov r8, 0
53: mov r2, r7
54: rsh r2, r8
55: and r2, 3
56: mov r3, r2
57: rsh r3, 1
58: lddw r5, 0x5555555555555555
60: and r3, r5
61: sub r2, r3
62: mov r3, r2
63: rsh r3, 2
64: lddw r5, 0x3333333333333333
66: and r3, r5
67: lddw r5, 0x3333333333333333
69: and r2, r5
70: add r2, r3
71: mov r3, r2
72: rsh r3, 4
73: add r2, r3
74: lddw r5, 0xf0f0f0f0f0f0f0f
76: and r2, r5
77: lddw r5, 0x101010101010101
79: mul r2, r5
80: rsh r2, 56
81: jge r2, r9 -> 84
82: sub r9, r2
83: add r8, 2
84: mov r2, r7
85: rsh r2, r8
86: and r2, 1
87: mov r3, r2
88: rsh r3, 1
89: lddw r5, 0x5555555555555555
91: and r3, r5
92: sub r2, r3
93: mov r3, r2
94: rsh r3, 2
95: lddw r5, 0x3333333333333333
97: and r3, r5
98: lddw r5, 0x3333333333333333
100: and r2, r5
101: add r2, r3
102: mov r3, r2
103: rsh r3, 4
104: add r2, r3
105: lddw r5, 0xf0f0f0f0f0f0f0f
107: and r2, r5
108: lddw r5, 0x101010101010101
110: mul r2, r5
111: rsh r2, 56
112: jge r2, r9 -> 115
113: sub r9, r2
114: add r8, 1
115: mov r2, r8
116: stxw [r10-12], r2
117: mov r3, r10
118: add r3, -12
119: lddw r2, map 1
121: ldxdw r1, [r10-8]
122: mov r4, 0
123: call 82
124: jne r0, 0 -> 131
125: lddw r1, map 2 value+0
127: mov r2, 1
128: xadddw [r1+0], r2
129: mov r0, 1
130: exit
131: lddw r1, map 2 value+0
133: mov r2, 1
134: xadddw [r1+8], r2
135: mov r0, 1
136: exit";
    assert_eq!(disasm(&DispatchProgram::build(1, 4)), expected);
}
