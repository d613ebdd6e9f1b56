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
6: mov r1, 0
7: mov r2, 0
8: stxw [r10-12], r2
9: mov r2, r10
10: add r2, -12
11: lddw r1, map 0
13: call 1
14: jeq r0, 0 -> 16
15: ldxdw r0, [r0+0]
16: mov r7, r0
17: and r7, 15
18: mov r8, r7
19: mov r3, r8
20: rsh r3, 1
21: lddw r5, 0x5555555555555555
23: and r3, r5
24: sub r8, r3
25: mov r3, r8
26: rsh r3, 2
27: lddw r5, 0x3333333333333333
29: and r3, r5
30: lddw r5, 0x3333333333333333
32: and r8, r5
33: add r8, r3
34: mov r3, r8
35: rsh r3, 4
36: add r8, r3
37: lddw r5, 0xf0f0f0f0f0f0f0f
39: and r8, r5
40: lddw r5, 0x101010101010101
42: mul r8, r5
43: rsh r8, 56
44: jle r8, 1 -> 137
45: mov r1, r6
46: mov r2, r8
47: mov32 r0, r1
48: mov32 r2, r2
49: mul r0, r2
50: rsh r0, 32
51: mov r9, r0
52: add r9, 1
53: mov r8, 0
54: mov r2, r7
55: rsh r2, r8
56: and r2, 3
57: mov r3, r2
58: rsh r3, 1
59: lddw r5, 0x5555555555555555
61: and r3, r5
62: sub r2, r3
63: mov r3, r2
64: rsh r3, 2
65: lddw r5, 0x3333333333333333
67: and r3, r5
68: lddw r5, 0x3333333333333333
70: and r2, r5
71: add r2, r3
72: mov r3, r2
73: rsh r3, 4
74: add r2, r3
75: lddw r5, 0xf0f0f0f0f0f0f0f
77: and r2, r5
78: lddw r5, 0x101010101010101
80: mul r2, r5
81: rsh r2, 56
82: jge r2, r9 -> 85
83: sub r9, r2
84: add r8, 2
85: mov r2, r7
86: rsh r2, r8
87: and r2, 1
88: mov r3, r2
89: rsh r3, 1
90: lddw r5, 0x5555555555555555
92: and r3, r5
93: sub r2, r3
94: mov r3, r2
95: rsh r3, 2
96: lddw r5, 0x3333333333333333
98: and r3, r5
99: lddw r5, 0x3333333333333333
101: and r2, r5
102: add r2, r3
103: mov r3, r2
104: rsh r3, 4
105: add r2, r3
106: lddw r5, 0xf0f0f0f0f0f0f0f
108: and r2, r5
109: lddw r5, 0x101010101010101
111: mul r2, r5
112: rsh r2, 56
113: jge r2, r9 -> 116
114: sub r9, r2
115: add r8, 1
116: mov r1, 1
117: mov r2, r8
118: stxw [r10-12], r2
119: mov r3, r10
120: add r3, -12
121: lddw r2, map 1
123: ldxdw r1, [r10-8]
124: mov r4, 0
125: call 82
126: jne r0, 0 -> 137
127: mov r0, 1
128: lddw r1, map 2 value+0
130: mov r2, 1
131: jeq r0, 0 -> 134
132: xadddw [r1+0], r2
133: ja -> 135
134: xadddw [r1+8], r2
135: mov r0, 1
136: exit
137: mov r0, 0
138: lddw r1, map 2 value+0
140: mov r2, 1
141: jeq r0, 0 -> 144
142: xadddw [r1+0], r2
143: ja -> 145
144: xadddw [r1+8], r2
145: mov r0, 1
146: exit";
    assert_eq!(disasm(&DispatchProgram::build(1, 4)), expected);
}
