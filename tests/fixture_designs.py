"""Small Verilog fixture designs exercising every supported construct.

This lives in its own uniquely-named module (not ``conftest.py``) so test
modules can ``import`` the sources without colliding with the *other*
``conftest.py`` in ``benchmarks/`` when pytest runs from the repository root.
"""

COUNTER_SRC = """
module counter(
  input clk,
  input rst,
  input en,
  input load,
  input [3:0] din,
  output reg [3:0] count,
  output wire carry
);
  wire [3:0] next_value;
  assign next_value = count + 1;
  assign carry = (count == 4'hF) & en;
  always @(posedge clk) begin
    if (rst) count <= 0;
    else if (load) count <= din;
    else if (en) count <= next_value;
  end
endmodule
"""

MUX_PIPELINE_SRC = """
module mux_pipeline(
  input clk,
  input rst,
  input sel,
  input [7:0] a,
  input [7:0] b,
  input [7:0] c,
  output reg [7:0] q,
  output wire [7:0] comb_out
);
  reg [7:0] stage;
  assign comb_out = stage ^ c;
  always @(*) begin
    if (sel) stage = a + b;
    else stage = a - b;
  end
  always @(posedge clk) begin
    if (rst) q <= 0;
    else q <= stage;
  end
endmodule
"""

MEMORY_SRC = """
module scratchpad(
  input clk,
  input rst,
  input we,
  input [2:0] waddr,
  input [2:0] raddr,
  input [7:0] wdata,
  output reg [7:0] rdata,
  output wire [7:0] peek0
);
  reg [7:0] mem [0:7];
  assign peek0 = mem[0];
  always @(posedge clk) begin
    if (rst) rdata <= 0;
    else begin
      if (we) mem[waddr] <= wdata;
      rdata <= mem[raddr];
    end
  end
endmodule
"""

HIERARCHY_SRC = """
module adder #(parameter WIDTH = 4) (
  input [WIDTH-1:0] x,
  input [WIDTH-1:0] y,
  output wire [WIDTH-1:0] s
);
  assign s = x + y;
endmodule

module wrapper(
  input clk,
  input rst,
  input [7:0] a,
  input [7:0] b,
  output reg [7:0] total
);
  wire [7:0] partial;
  adder #(.WIDTH(8)) u_add (.x(a), .y(b), .s(partial));
  always @(posedge clk) begin
    if (rst) total <= 0;
    else total <= partial;
  end
endmodule
"""

CASE_FSM_SRC = """
module fsm(
  input clk,
  input rst,
  input go,
  input stop,
  output reg [1:0] state,
  output reg active
);
  localparam IDLE = 2'd0;
  localparam RUN  = 2'd1;
  localparam HALT = 2'd2;
  always @(posedge clk) begin
    if (rst) begin
      state <= IDLE;
      active <= 0;
    end
    else begin
      case (state)
        IDLE: begin
          if (go) state <= RUN;
          active <= 0;
        end
        RUN: begin
          active <= 1;
          if (stop) state <= HALT;
        end
        HALT: state <= IDLE;
        default: state <= IDLE;
      endcase
    end
  end
endmodule
"""

# ``u`` is a block local (assigned on every path before it is read); ``t`` is
# not: with ``en`` low, ``q <= t`` reads the previous activation's value.
TEMPS_SRC = """
module temps(
  input clk,
  input en,
  input sel,
  input [7:0] x,
  input [7:0] y,
  output reg [7:0] q,
  output reg [7:0] r
);
  wire [7:0] m;
  reg [7:0] t;
  reg [7:0] u;
  assign m = sel ? x : y;
  always @(posedge clk) begin
    if (en) t = m + 1;
    u = m ^ 8'h5a;
    q <= t;
    r <= u + t;
  end
endmodule
"""

# A combinational loop through a behavioral node: with ``en`` high, ``y``
# feeds its own inverse back, so the design never settles; with ``en`` low
# it holds at zero.
OSCILLATOR_SRC = """
module oscillator(
  input clk,
  input en,
  output reg q,
  output wire y
);
  reg a;
  always @(*) a = en ? ~y : 1'b0;
  assign y = a;
  always @(posedge clk) q <= y;
endmodule
"""
