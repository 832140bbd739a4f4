// Quickstart: boot an M3 system, create a VPE on a second core, and
// exchange messages with it through DTU gates — the paper's basic
// programming model (§4.5.5's VPE::run example, extended with a real
// message channel instead of Serial output).
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/kif"
	"repro/internal/m3"
	"repro/internal/sim"
	"repro/internal/tile"
)

func main() {
	eng := sim.NewEngine()
	// Four processing elements: kernel, parent, child, and one spare.
	plat := tile.NewPlatform(eng, tile.Homogeneous(4))
	kern := core.Boot(plat, 0)

	_, err := kern.StartInit("parent", tile.CoreXtensa, func(ctx *tile.Ctx) {
		env := m3.NewEnv(ctx, kern)
		parent(env)
		env.Exit(0)
	})
	if err != nil {
		log.Fatal(err)
	}

	end := eng.Run()
	fmt.Printf("simulation finished after %d cycles\n", end)
}

func parent(env *m3.Env) {
	// A receive gate for answers from the child, with a send gate the
	// child will use (label 7 identifies the child; credits bound the
	// in-flight messages).
	rg, err := env.NewRecvGate(128, 4)
	check(err)
	sg, err := rg.NewSendGate(7, 2)
	check(err)

	// Ask the kernel for an unused PE of the same type.
	a, b := 4, 5
	vpe, err := env.NewVPE("child", tile.CoreXtensa)
	check(err)
	fmt.Printf("child VPE on PE %d\n", vpe.PEID)

	// Hand the child the send gate at an agreed selector, then clone
	// ourselves onto the PE and run the lambda there.
	const childSGate = 100
	check(vpe.Delegate(sg, childSGate, 1))
	check(vpe.Run(func(child *m3.Env) {
		// This code runs on the child PE. Captured values were copied
		// with the clone image; results travel back as a message.
		sum := a + b
		var o kif.OStream
		o.Str(fmt.Sprintf("sum: %d", sum))
		csg := child.SendGateAt(childSGate)
		if err := csg.Send(o.Bytes()); err != nil {
			child.SetExit(1)
		}
	}))

	// Receive the child's message and wait for its exit.
	msg := rg.Recv()
	is := kif.NewIStream(msg.Data)
	fmt.Printf("message from child (label %d): %q\n", msg.Label, is.Str())
	rg.Ack(msg)

	code, err := vpe.Wait()
	check(err)
	fmt.Printf("child exited with code %d at cycle %d\n", code, env.Ctx.Now())
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
